# Developer entry points. `make ci` is what a gate should run: static
# lock-hazard lint (go vet + a clalint self-run over the repo itself),
# gofmt cleanliness, build, arm64/386 cross-builds, race-enabled tests,
# a fuzz smoke pass over every fuzz target, the reference-oracle
# matrix, the serving-path golden smoke, and the benchmark's short
# smoke test (for real numbers use `make bench`).

GO ?= go

# Seconds per fuzz target in fuzz-smoke. 30s each keeps the eleven
# targets near six minutes while still exercising the mutation engine
# beyond the seed corpus.
FUZZTIME ?= 30s

.PHONY: all build vet test race lint fuzz-smoke stream-diff serve-smoke hazard-smoke fmt-check cross-build bench bench-compare bench-smoke instr-smoke docs-check guide ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Cross-build for architectures CI cannot run: clrt's goroutine-id
# lookup has an amd64 assembly stub, and the parse-only fallback the
# other architectures get (clrt/goid_other.go) must keep compiling and
# vetting.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./clrt

# Static lock-hazard analysis: go vet plus a clalint self-run over the
# whole tree (testdata corpora are pruned by the pattern walker). The
# self-run must stay clean — fix findings or add a justified
# `//lint:ignore <check> <reason>`.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/clalint ./...

# Short mutation run of every fuzz target: the segment frame/footer
# decoders and manifest reader (hostile bytes must error, never panic),
# the trace codecs and the encoding-sniffing trace.Decode, the batch
# frame decoder against a plain DecodeEvent loop,
# trace.Validate, the lint and hazard passes, the channel/cond pairing
# rules against a naive history model, and the analysis of unvalidated
# segment dirs at every segmentation and parallelism (all fail, or all
# agree). Go allows one fuzz target per
# `go test -fuzz` invocation, so they run back to back.
fuzz-smoke:
	$(GO) test ./internal/segment -run '^$$' -fuzz FuzzSegmentFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segment -run '^$$' -fuzz FuzzManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzAppendFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadBinary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecode$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint -run '^$$' -fuzz FuzzLint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hazard -run '^$$' -fuzz FuzzHazard -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pairing -run '^$$' -fuzz FuzzPairing -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzAnalyzeSegments -fuzztime $(FUZZTIME)

# Reference oracle: the analysis of segmented, spilled and in-memory
# (TraceSource) traces must be bit-identical to the test-only reference
# transcription of the paper's algorithm (internal/core/reference_test.go)
# at every segmentation, parallelism, window and spill setting, and a
# malformed lock event must fail with the same error at any parallelism,
# under the race detector. The event-replaying sections get the same
# treatment: TestSlackMatchesOracle and TestLockOrderMatchesOracle hold
# the streamed slack and the lock-order view of the hazard fold to the
# implementations they replaced (internal/core/sections_test.go), and
# TestEverySectionAnySource (cmd/cla) checks that every cla section
# prints the same from a segment directory as from the trace file.
stream-diff:
	$(GO) test -race ./internal/core -run 'TestAnalyzeStream|TestTraceSource|MatchesReference|TestLockErrors|TestSlackMatchesOracle|TestLockOrderMatchesOracle' -count=1 -v
	$(GO) test -race ./cmd/cla -run 'TestEverySectionAnySource' -count=1 -v

# Serving-path smoke: spin up the analysis server in-process, POST the
# checked-in synth workload and byte-diff the JSON report against its
# golden (testdata/smoke_report.golden), plus the source-level
# differential oracle behind the unified Analyze API. Refresh the
# golden with UPDATE_SERVE_GOLDEN=1 after an intended change.
serve-smoke:
	$(GO) test ./internal/serve -run 'TestServeSmokeGolden|TestSegdirMatchesUpload' -count=1 -v
	$(GO) test . -run TestAnalyzeSourcesAgree -count=1

# Hazard-prediction smoke: the planted deadlock and lost-signal
# workloads must light up (with the cross-thread witness), every clean
# workload must report zero hazards, and the streaming pass must be
# bit-identical to the in-memory one at every tested segmentation and
# worker count. The planted reports match testdata/reports.golden byte
# for byte, and the fold stays under its allocations-per-event bounds.
hazard-smoke:
	$(GO) test ./internal/hazard -run 'TestDeadlockProne|TestLostSignalPlanted|TestCleanWorkloadsNoHazards|TestStreamMatchesInMemory|TestReportsGolden|TestFromSegmentsAllocs' -count=1 -v
	$(GO) test ./internal/lint -run TestCrossReferenceHazards -count=1

# Gofmt cleanliness — the build stays formatter-neutral.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The benchmark's short smoke test (bench/ is its own module): every
# workload at a tiny size with its output checks, minus clrt_pool's go
# builds — catches crashes and broken checks without tying up CI.
bench-smoke:
	$(GO) -C bench test -short ./...

# End-to-end instrumenter smoke: instrument examples/instr (an
# ordinary sync+chan program with a planted hot lock), run the copy,
# analyze its trace, and assert the planted lock tops the report —
# plus the golden pin of the rewrite rules (refresh an intended
# rewrite change with `go test ./internal/instr -update`).
instr-smoke:
	$(GO) test ./internal/instr -run 'TestInstrumentExampleEndToEnd|TestGoldenTarget' -count=1 -v

# Docs freshness: re-run the guide's pipeline and fail when the
# committed docs/GUIDE.md transcripts drifted (numbers normalized).
# Regenerate with `make guide`.
docs-check:
	./scripts/guide.sh check

guide:
	./scripts/guide.sh gen

# The benchmark declared in BENCHMARK.json: every workload, end to end
# and per layer (bench/README.md covers the single-workload and compare
# modes).
bench:
	bash bench/run.sh -seed 1

# Interleaved before/after runs of one workload against an earlier
# commit, judged by the benchmark's bounds (scripts/bench_compare.sh;
# W, PAIRS, BASE and SEED select the runs). Too slow for ci.
bench-compare:
	W="$(W)" PAIRS="$(PAIRS)" BASE="$(BASE)" SEED="$(SEED)" bash scripts/bench_compare.sh

ci: lint fmt-check build cross-build race stream-diff serve-smoke hazard-smoke fuzz-smoke bench-smoke instr-smoke docs-check
