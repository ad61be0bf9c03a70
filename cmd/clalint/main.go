// Command clalint is the static lock-hazard analyzer: the
// before-any-run counterpart to cla's dynamic critical lock analysis.
// It parses Go source (harness Proc API and plain sync.Mutex/RWMutex
// alike) and reports deadlock-prone lock-order inversions,
// missing-unlock paths, double locks, RLock/RUnlock pairing
// violations, blocking operations inside critical sections, Waits
// outside re-checking loops, and copied mutex values — plus a static
// weight estimate per lock acquisition site.
//
//	clalint ./...                      # lint a tree
//	clalint -json ./internal/...       # machine-readable findings
//	clalint -weights ./pkg             # include the site/weight table
//	clalint -report analysis.json ./...  # rank findings by dynamic CP Time %
//	clalint -dynamic trace.cltr ./...  # + predicted hazards from a trace
//	clalint -dynamic segs/ ./...       # same, streaming a segment directory
//
// The -report input is the analysis JSON written by `cla -jsonreport`
// or served by clasrv /v1/analyze: findings whose lock resolves to a
// dynamic lock name are annotated with the lock's CP Time % and
// contention probability on the critical path and sort hottest-first,
// and every hot critical lock with a static hazard gets a summary
// warning.
//
// -dynamic accepts a trace file (binary or JSON), a segment directory,
// or an analysis JSON that already carries a hazards section, runs the
// dynamic hazard prediction (feasible deadlock cycles with cross-thread
// critical sections, lost signals, guard inconsistencies), and merges
// those findings into the static list: a dynamic deadlock names the
// static lockorder cycle it corroborates, and the whole view re-ranks
// by measured CP Time %. A trace or a segment directory is opened,
// analyzed and folded for hazards through internal/input, as cla does.
// Exit status: 0 clean, 1 findings, 2 usage/internal error.
//
// Findings are suppressed with a justified comment on the same or the
// preceding line:
//
//	//lint:ignore <check> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"critlock/internal/cliflags"
	"critlock/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clalint:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("clalint", flag.ContinueOnError)
	var (
		jsonOut    = fs.Bool("json", false, "emit findings as JSON")
		reportPath = fs.String("report", "", "dynamic analysis JSON (cla -jsonreport / clasrv) to cross-reference")
		dynPath    = fs.String("dynamic", "", "trace file, segment directory, or analysis JSON: predict dynamic hazards and merge them into the findings")
		weights    = fs.Bool("weights", false, "print the per-site static critical-section weight table")
		tests      = cliflags.Tests(fs)
		nocalls    = fs.Bool("nocalls", false, "disable cross-function lock-order propagation")
		nostd      = fs.Bool("nostdtypes", false, "skip stdlib type resolution (faster, less precise)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := lint.Run(lint.Options{
		Patterns:     patterns,
		IncludeTests: *tests,
		StdlibTypes:  !*nostd,
		NoCallGraph:  *nocalls,
	})
	if err != nil {
		return 2, err
	}
	switch {
	case *reportPath != "" && *dynPath != "":
		return 2, fmt.Errorf("-report and -dynamic are exclusive (-dynamic subsumes -report)")
	case *dynPath != "":
		rep, err := lint.LoadDynamic(*dynPath)
		if err != nil {
			return 2, err
		}
		lint.CrossReferenceHazards(res, rep)
	case *reportPath != "":
		rep, err := lint.LoadReport(*reportPath)
		if err != nil {
			return 2, err
		}
		lint.CrossReference(res, rep)
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 2, err
		}
	} else {
		var sb strings.Builder
		lint.WriteHuman(&sb, res, *weights)
		fmt.Fprint(out, sb.String())
	}
	if len(res.Findings) > 0 {
		return 1, nil
	}
	return 0, nil
}
