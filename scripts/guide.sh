#!/bin/sh
# guide.sh — regenerate (or freshness-check) docs/GUIDE.md, the
# end-to-end instrumentation tutorial. Every command transcript in the
# guide is produced by actually running the command, so the document
# cannot drift from the tools:
#
#   ./scripts/guide.sh gen     # rewrite docs/GUIDE.md in place
#   ./scripts/guide.sh check   # regenerate to a temp file and diff
#                              # (digits normalized: timings and event
#                              # counts vary run to run)
#
# The working directory is fixed at /tmp/claguide so the paths shown
# in the guide are stable across machines.
set -eu

mode="${1:-gen}"
repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
work=/tmp/claguide
out="$repo/docs/GUIDE.md"

cd "$repo"
rm -rf "$work"
mkdir -p "$work" "$repo/docs"

run() { # run "$@" capturing stdout+stderr, echoing nothing on success
    "$@" >"$work/cmd.out" 2>&1 || true
    cat "$work/cmd.out"
}

# ---- execute the pipeline the guide narrates ----

instr_out="$(run go run ./cmd/clainstr -o "$work/app" ./examples/instr)"

run_out="$(cd "$work/app" && CRITLOCK_SEGDIR="$work/segs" CRITLOCK_SEED=1 go run . 2>&1 || true)"

ls_out="$(ls "$work/segs" | head -4)"

cla_out="$(run go run ./cmd/cla -segdir "$work/segs")"

jsonrep_out="$(run go run ./cmd/cla -segdir "$work/segs" -jsonreport "$work/report.json" -top 3)"
: "$jsonrep_out" # table already shown; only report.json matters here

lint_out="$(run go run ./cmd/clalint -report "$work/report.json" ./examples/instr)"
[ -n "$lint_out" ] || lint_out="(no static hazards: the example locks cleanly)"

dl_out="$(run go run ./cmd/clasim -w deadlockprone -o "$work/dl.cltr")"
: "$dl_out"
haz_out="$(run go run ./cmd/cla -hazards "$work/dl.cltr" | sed -n '/dynamic hazard/,$p')"
dynlint_out="$(run go run ./cmd/clalint -dynamic "$work/dl.cltr" ./examples/instr)"

gen_guide() {
cat <<EOF
# Analyzing your own program: an end-to-end guide

*(generated by \`scripts/guide.sh gen\` — edit the script, not this
file; \`make docs-check\` fails CI when the transcripts go stale)*

This guide takes an ordinary Go program — plain \`sync.Mutex\`,
\`sync.WaitGroup\`, goroutines and channels, no critlock imports —
and walks the full pipeline from the paper:

    clainstr  →  instrumented copy  →  run (emits trace)  →  cla  →  clalint -report
    (rewrite)                           (clrt runtime)       (analysis)  (static × dynamic)

The target is [\`examples/instr\`](../examples/instr/main.go): a
four-worker pool where each item's real work is lock-free, but every
worker funnels through one global \`statsMu\` whose critical section
rescans a whole histogram table per update. That is the paper's
motivating pattern — a modest lock wait that nevertheless serializes
the program — and the analysis below finds it.

## 1. Instrument the program

\`clainstr\` writes a rewritten *copy* of the target (the original is
never touched): \`sync\` types become traced \`clrt\` types, \`go\`
statements route through \`clrt.Go\`, \`func main\` is wrapped so the
trace is flushed on exit, and — because this program's channel usage
is fully resolvable — channel operations are rewritten too.

    $ go run ./cmd/clainstr -o /tmp/claguide/app ./examples/instr
$(printf '%s\n' "$instr_out" | sed 's/^/    /')

The copy's \`go.mod\` gains a \`replace critlock => …\` directive so it
builds against this repository's \`clrt\` runtime. Anything the
rewriter cannot handle faithfully is *reported, never rewritten
wrong*: a per-file skip report lists each construct (see
[§7](#7-when-the-rewriter-says-no)).

## 2. Run the instrumented copy

The copy is a normal Go module. Environment variables steer the trace
output (see \`clrt\`'s package docs): \`CRITLOCK_SEGDIR\` writes the
bounded-memory segmented format, \`CRITLOCK_OUT\` a single binary
trace file, \`CRITLOCK_SEED\` pins naming/adoption order for
reproducible runs, \`CRITLOCK_QUIET\` silences the summary line.

    $ cd /tmp/claguide/app
    $ CRITLOCK_SEGDIR=/tmp/claguide/segs CRITLOCK_SEED=1 go run .
$(printf '%s\n' "$run_out" | sed 's/^/    /')

The program's own behavior is unchanged — same output, same exit
code — it just also recorded every lock acquisition, channel
operation and thread hop:

    $ ls /tmp/claguide/segs | head -4
$(printf '%s\n' "$ls_out" | sed 's/^/    /')

## 3. Analyze the trace

\`cla\` replays the trace through the critical-path walk and prints
the paper's lock table:

    $ go run ./cmd/cla -segdir /tmp/claguide/segs
$(printf '%s\n' "$cla_out" | sed 's/^/    /')

How to read it, in the paper's terms:

- **CP Time %** is the TYPE 1 headline metric: the share of the
  program's *critical path* spent inside this lock's critical
  sections (hold time on the path, plus the waiting the walk
  attributes to it). \`main.statsMu\` dominates because every worker
  serializes through its table rescan; the foil \`main.configMu\`,
  read once by \`main\` before the workers start, is on the path in
  every run but barely registers.
- **Invo. # on CP / Cont. Prob. on CP %** are the TYPE 2 diagnosis
  metrics: how often the lock appears on the critical path and how
  often an on-path acquisition had to wait. High CP share with low
  contention probability (as here) means the *hold time itself* is
  the problem: shrink the critical section, don't just shard the
  lock.
- **Wait Time %** is the classic blocked-time view. Note how it can
  mislead: statsMu's wait share is large, but the table tells you the
  serialized *hold* is what the critical path actually pays for.
- The channel table plays the same role for channel waits — the work
  queue's send blocking shows up there, attributed, not smeared into
  "computation".

## 4. Cross-reference with the static analyzer

\`cla -jsonreport\` writes the analysis in the machine format that
\`clasrv\` serves and \`clalint\` consumes:

    $ go run ./cmd/cla -segdir /tmp/claguide/segs -jsonreport /tmp/claguide/report.json
    $ go run ./cmd/clalint -report /tmp/claguide/report.json ./examples/instr
$(printf '%s\n' "$lint_out" | sed 's/^/    /')

With \`-report\`, clalint's static findings (lock-order inversions,
missing unlocks, blocking calls under locks, …) are ranked by each
lock's *dynamic* CP Time % — a hazard on a lock that dominates the
critical path outranks the same hazard on a cold lock. This example
locks cleanly, so the value shows up on real code: run it on yours.

## 5. Predict hazards the run never tripped

The same trace structure also supports *hazard prediction*
(DESIGN.md §14): the observed lock nesting — including critical
sections extended across cond wakeups and channel handoffs — forms a
dynamic lock-order graph whose cycles are feasible deadlocks, even
when this run got lucky. The planted \`deadlockprone\` workload hides
its inversion behind a channel handoff, so no single thread ever
nests both locks:

    $ go run ./cmd/clasim -w deadlockprone -o /tmp/claguide/dl.cltr
    $ go run ./cmd/cla -hazards /tmp/claguide/dl.cltr
    … lock and channel tables as above, then:
$(printf '%s\n' "$haz_out" | sed 's/^/    /')

\`clalint -dynamic\` merges the predicted hazards into the static
findings (ranked, like everything else, by measured CP Time %);
hazards whose locks match a static lock-order cycle are marked as
corroborating it, and findings with no matching source site in the
linted packages — as here, where the trace comes from a modelled
workload — stay unanchored rather than being dropped:

    $ go run ./cmd/clalint -dynamic /tmp/claguide/dl.cltr ./examples/instr
$(printf '%s\n' "$dynlint_out" | sed 's/^/    /')

\`-dynamic\` accepts a binary/JSON trace, a segment directory, or a
\`-jsonreport\` export; \`clasrv\`'s \`POST /v1/hazards\` serves the
same report over HTTP.

## 6. Iterate

The instrumented copy is disposable; the loop is

1. edit your real program,
2. re-run \`clainstr\` (fresh copy, same command),
3. re-run + \`cla\`, watch the planted lock's CP Time % drop,

and \`cladiff\` compares two analyses directly. For capacity questions
— "would this still scale at 32 threads?" — feed the same trace to
\`clawhatif\`; for synthetic exploration see \`clasim\` / \`clagen\`.

## 7. When the rewriter says no

\`clainstr\` refuses, loudly and per construct, instead of producing a
copy that lies:

- **Skip report** — each skipped construct prints as
  \`file.go: line N: [construct] reason\` (also as JSON with
  \`-json\`). \`-strict\` turns any finding into exit status 1.
- **Channel gate** — channel rewriting changes channel *types*, which
  is only sound when every flow is visible. A defined channel type, a
  chan type assertion/conversion, or any channel whose provenance the
  loader cannot resolve closes the gate for the whole module (locks
  are still instrumented; a notice says channel blocking will be
  invisible). \`-nochan\` closes it explicitly.
- **sync.Cond** has no traced counterpart and is reported; keep
  Cond-guarded mutexes out of the instrumented patterns.
- **External boundaries** — a rewritten channel passed to an external
  package cannot compile; the build of the copy fails loudly and the
  finding tells you to rerun with \`-nochan\`.

## Appendix: flag reference

Run each tool with \`-h\` for the full list. The ones used above:

| Flag | Tool | Meaning |
|---|---|---|
| \`-o dir\` | clainstr | output directory for the instrumented copy (required) |
| \`-critlock dir\` | clainstr | path to this repository (auto-detected under \`go run\`) |
| \`-nochan\` / \`-strict\` / \`-json\` / \`-tests\` | clainstr | gate channels off / findings are fatal / JSON result / include \`_test.go\` |
| \`-segdir dir\` | cla | read the segmented trace format |
| \`-jsonreport file\` | cla | write the clasrv-format analysis JSON |
| \`-top n\` | cla | rows in the lock table (0 = all) |
| \`-report file\` | clalint | dynamic analysis JSON to rank findings by |
| \`-dynamic path\` | clalint | trace / segdir / report: predict dynamic hazards and merge them into the findings |
| \`-hazards\` | cla | append the hazard-prediction report (feasible deadlocks, lost signals) |
EOF
}

case "$mode" in
gen)
    gen_guide >"$out"
    echo "guide.sh: wrote $out"
    ;;
check)
    if [ ! -f "$out" ]; then
        echo "guide.sh: $out missing — run ./scripts/guide.sh gen" >&2
        exit 1
    fi
    gen_guide >"$work/GUIDE.fresh.md"
    # Timings, event counts and temp-path suffixes differ between
    # runs; compare shape, not numbers. Sorting makes the comparison
    # insensitive to table-row reordering among near-tied locks.
    norm() { sed -E 's/[0-9]+/N/g; s/[[:space:]]+/ /g; s/-+//g' "$1" | sort; }
    if ! { norm "$out" >"$work/a"; norm "$work/GUIDE.fresh.md" >"$work/b"; diff -u "$work/a" "$work/b"; }; then
        echo "guide.sh: docs/GUIDE.md is stale — run ./scripts/guide.sh gen and commit the result" >&2
        exit 1
    fi
    echo "guide.sh: docs/GUIDE.md is fresh"
    ;;
*)
    echo "usage: scripts/guide.sh [gen|check]" >&2
    exit 2
    ;;
esac
