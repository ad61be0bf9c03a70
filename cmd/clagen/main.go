// Command clagen extracts a declarative workload model from a trace:
// the locks, their hold sizes and invocation rates, and the compute
// between them, emitted as synth-DSL JSON. The output re-creates the
// trace's contention profile in a sandbox where it can be edited and
// re-simulated (clasim -synth) — diagnose on the real system, iterate
// on the model.
//
//	clasim -w radiosity -threads 24 -o rad.cltr
//	clagen rad.cltr > rad-model.json
//	clasim -synth rad-model.json
//	clagen -segdir segs/ > model.json     # from a segmented trace
//
// The trace is opened and analyzed through internal/input, as in cla.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"critlock/internal/cliflags"
	"critlock/internal/core"
	"critlock/internal/input"
	"critlock/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clagen:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("clagen", flag.ContinueOnError)
	segdir := cliflags.SegDir(fs)
	mmap := cliflags.Mmap(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in *input.Input
	var err error
	if *segdir != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("-segdir replaces the trace file argument")
		}
		in, err = input.Dir(*segdir, *mmap)
	} else {
		if fs.NArg() != 1 {
			fs.Usage()
			return fmt.Errorf("expected exactly one trace file argument (or -segdir DIR)")
		}
		in, err = input.File(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	defer in.Close()
	res, err := in.Analyze(core.DefaultConfig(), false)
	if err != nil {
		return err
	}
	cfg, err := synth.FromAnalysis(res.Analysis)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}
