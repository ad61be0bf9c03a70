# Developer entry points. `make ci` is what a gate should run: static
# lock-hazard lint (go vet + a clalint self-run over the repo itself),
# gofmt cleanliness, build, arm64/386 cross-builds, race-enabled tests,
# a fuzz smoke pass over every fuzz target, the reference-oracle
# matrix, the serving-path golden smoke, and the benchmark's short
# smoke test (for real numbers use `make bench`).

GO ?= go

# Seconds per fuzz target in fuzz-smoke. 30s each keeps the twelve
# targets a little over six minutes while still exercising the
# mutation engine beyond the seed corpus.
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

# Short mutation run of every fuzz target: the segment reader every
# segment dir goes through (verifyImage and LoadColumns' frame decode,
# on an in-memory image) and the manifest parse (hostile bytes, parsed
# in memory as Open parses the file's, must error, never panic, and the
# missing segments of a manifest that parses must fail to load cleanly),
# the trace codecs and the encoding-sniffing trace.Decode (the binary
# event section decoded in parts must match the one-part decode), the batch
# frame decoder against a plain DecodeEvent loop,
# trace.Validate against the map-based oracle it replaced (both accept,
# or both report the same problems), the lint and hazard passes, the channel/cond pairing
# rules against a naive history model, and the analysis of unvalidated
# segment dirs at every segmentation and parallelism (all fail, or all
# agree) and of unvalidated in-memory traces (never a panic, and the
# validator's error from TraceSource). Go allows one fuzz target per
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
	$(GO) test ./internal/report -run '^$$' -fuzz FuzzWriteExport -fuzztime $(FUZZTIME)

# Reference oracle: the analysis of segmented, spilled and in-memory
# (TraceSource) traces must be bit-identical to the test-only reference
# transcription of the paper's algorithm (internal/core/reference_test.go)
# at every segmentation, pass-3 range count and walk window, and a
# malformed lock event must fail with the same error in any number of
# ranges,
# under the race detector. The event-replaying sections get the same
# treatment: TestSlackMatchesOracle and TestLockOrderMatchesOracle hold
# the streamed slack and the lock-order view of the hazard fold to the
# implementations they replaced (internal/core/sections_test.go), and
# TestEverySectionAnySource (cmd/cla) checks that every cla section
# prints the same from a segment directory as from the trace file.
# TestCompositionMatchesHolds holds the composition, read off the
# hot-interval index, to the reference's per-thread holds formula on
# every workload (simulated and live) in 1, 2 and 8 pass-3 ranges, and
# TestCompositionAnySource requires a segment directory at the default
# configuration to report the composition TraceSource reports.
# TestBufferedReadsBounded (internal/segment) loads buffered segments
# from concurrent goroutines and bounds the heap they leave behind, and
# TestBufferedFirstLoadReadsOnce requires a buffered segment's first
# load to read its file once;
# TestSpillerMergesRuns and TestSpillMergeBounded merge spilled runs
# through the same reader and bound the merge's live heap at two run
# segments per thread; TestSegmentTruncation and TestSegmentBitFlips
# refuse every cut and flip of a segment file, in memory, mapped and
# buffered. The
# work a trace file spreads over the cores runs here too: validation
# beside the passes (one validate phase, observer callbacks that never
# overlap, no goroutine left behind, the validator's error on every
# invalid trace, passes that never panic on unvalidated events) and
# the binary decoder's parts (the one-part result and errors, no
# goroutine left behind), and the read-ahead of sequential segment
# sweeps: TestReadAhead* hold every sweep's output and errors to the
# sequential reads and leave no decode or goroutine behind, and
# TestFoldJoinsDecodes (internal/hazard) requires the hazard fold to
# return with no decode running at any worker count. A zero-length
# critical section is on the path only when the walk visited its
# obtain (by event index, in pass 3 and the reference alike): the
# seeds of FuzzSections (critical locks whose sections enclose no
# other lock have zero slack) and TestPropertyZeroLengthSectionSeeds
# (internal/sim) replay programs where the path left a thread at the
# very timestamp of such a section. The sparse annotations are pinned
# too: TestWalkPrevMatchesScan holds the walk's derived same-thread
# predecessors to a naive scan at segment sizes 1 to 65,536, and
# TestAnnotationBytes holds the store to its records and entry links
# (at most 2.5 bytes per event on a convoy). Slack reads the records
# the analysis keeps: TestSlackInputs refuses a source of another event
# count and an analysis with no records and holds slack over 1-, 3- and
# 64K-event segments to the oracle, and TestSlackConcurrent requires
# two calls on one Analysis at once to read it race-free and agree with
# a serial call.
stream-diff:
	$(GO) test -race ./internal/core -run 'TestAnalyzeStream|TestTraceSource|MatchesReference|TestLockErrors|TestSlackMatchesOracle|TestLockOrderMatchesOracle|TestValidateBeside|TestTraceSegmentsChecks|TestUnvalidatedTraceNeverPanics|TestCompositionMatchesHolds|TestCompositionAnySource|TestReadAhead|TestFoldColumnsParity|TestDefaultSplitMatchesReference|FuzzSections|TestWalkPrevMatchesScan|TestAnnotationBytes|TestSlackInputs|TestSlackConcurrent' -count=1 -v
	$(GO) test -race ./internal/sim -run 'TestPropertyZeroLengthSectionSeeds' -count=1 -v
	$(GO) test -race ./internal/hazard -run 'TestFoldJoinsDecodes' -count=1 -v
	$(GO) test -race ./internal/segment -run 'TestBufferedReadsBounded|TestBufferedFirstLoadReadsOnce|TestSpillerMergesRuns|TestSpillMergeBounded|TestSegmentTruncation|TestSegmentBitFlips' -count=1 -v
	$(GO) test -race ./internal/trace -run 'TestSplitDecode|TestDecodeBinaryGoroutines' -count=1 -v
	$(GO) test -race ./cmd/cla -run 'TestEverySectionAnySource' -count=1 -v

# Serving-path smoke: spin up the analysis server in-process, POST the
# checked-in synth, pipeline and deadlock-prone workloads and byte-diff
# the JSON reports against their goldens (testdata/*_report.golden; the
# last one through /v1/hazards), plus the source-level differential
# oracle behind the unified Analyze API and the report writer's
# differential test against encoding/json (under -race: writers share
# a buffer pool). Every program opens its input through internal/input,
# so its tests run here under -race too: every input kind of one trace
# gives the same report bytes and lock order, failures keep their types
# and texts, and clasrv closes an input on every path (200, 503, 504
# and a 422 from the hazard fold; the 504 closes from the abandoned
# analysis goroutine), ignores ?mmap= and ?annbudget=, and words
# failures as before. Refresh the goldens with UPDATE_SERVE_GOLDEN=1
# after an intended change.
serve-smoke:
	$(GO) test ./internal/serve -run 'TestServeSmokeGolden|TestServeChanGolden|TestServeHazardsGolden|TestSegdirMatchesUpload' -count=1 -v
	$(GO) test -race ./internal/input -count=1 -v
	$(GO) test -race ./internal/serve -run 'TestRunClosesInput|TestSizingKeysIgnored|TestErrorTexts' -count=1 -v
	$(GO) test -race ./internal/report -run TestWriteExportMatchesEncodingJSON -count=1 -v
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
