// Command cladiff compares two traces of the same program — typically
// an original and an optimized run — and reports how the critical
// path moved: the speedup, each lock's change in CP share, and where
// the path went after the optimization. This is the paper's
// validation methodology (§V.D.3) as a tool.
//
//	clasim -w radiosity -threads 24 -o before.cltr
//	clasim -w radiosity -threads 24 -twolock -o after.cltr
//	cladiff before.cltr after.cltr
//
// Each trace may be binary or JSON; the two need not match.
package main

import (
	"flag"
	"fmt"
	"os"

	"critlock/internal/core"
	"critlock/internal/input"
	"critlock/internal/report"
	"critlock/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cladiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cladiff", flag.ContinueOnError)
	var (
		top = fs.Int("top", 12, "lock movements to list (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("expected exactly two trace files (before, after)")
	}

	load := func(path string) (*core.Analysis, trace.Time, error) {
		in, err := input.File(path)
		if err != nil {
			return nil, 0, err
		}
		defer in.Close()
		res, err := in.Analyze(core.DefaultConfig(), false)
		if err != nil {
			return nil, 0, err
		}
		return res.Analysis, in.Trace.Duration(), nil
	}

	before, beforeTime, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	after, afterTime, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	cmp := core.Compare(before, after, beforeTime, afterTime)
	fmt.Printf("before: %s (%d ns)\n", fs.Arg(0), cmp.BeforeTime)
	fmt.Printf("after:  %s (%d ns)\n", fs.Arg(1), cmp.AfterTime)
	fmt.Printf("speedup: %.3fx (%.1f%% improvement)\n\n", cmp.Speedup, cmp.ImprovementPct)

	t := report.NewTable("Critical-path movement by lock",
		"Lock", "CP Time %% before", "CP Time %% after", "Δ", "Cont. on CP before", "after", "Note")
	locks := cmp.Locks
	if *top > 0 && *top < len(locks) {
		locks = locks[:*top]
	}
	for _, d := range locks {
		note := ""
		switch {
		case !d.InBefore:
			note = "new lock"
		case !d.InAfter:
			note = "removed"
		case d.CPTimeDelta < -1:
			note = "relieved"
		case d.CPTimeDelta > 1:
			note = "absorbed path time"
		}
		t.AddRow(d.Name,
			report.Pct(d.CPTimeBefore), report.Pct(d.CPTimeAfter),
			fmt.Sprintf("%+.2f", d.CPTimeDelta),
			report.Pct(d.ContOnCPBefore), report.Pct(d.ContOnCPAfter),
			note)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	mover := cmp.TopMover()
	fmt.Printf("\nbiggest movement: %s (%+.2f points of the critical path)\n", mover.Name, mover.CPTimeDelta)
	return nil
}
