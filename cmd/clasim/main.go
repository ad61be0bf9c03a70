// Command clasim runs a modelled workload on the deterministic
// simulator (or the live goroutine backend), optionally writes the
// trace, and prints the critical lock analysis report.
//
// Examples:
//
//	clasim -list
//	clasim -w radiosity -threads 24
//	clasim -w radiosity -threads 24 -twolock
//	clasim -w micro -threads 4 -gantt
//	clasim -w tsp -threads 24 -o tsp.cltr        # save binary trace
//	clasim -w tsp -backend live -threads 8       # run on real goroutines
//	clasim -w tsp -segdir segs/                  # save segmented trace
//	clasim -w tsp -segdir segs/ -spill 65536     # spill during the run,
//	                                             # stream the analysis
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"critlock"
	"critlock/internal/cliflags"
	"critlock/internal/harness"
	"critlock/internal/livetrace"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/synth"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clasim", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available workloads and exit")
		name     = fs.String("w", "micro", "workload to run")
		synthIn  = fs.String("synth", "", "run a declarative JSON workload from this file instead of -w")
		threads  = fs.Int("threads", 0, "worker threads (0 = workload default)")
		seed     = fs.Int64("seed", 1, "random seed")
		scale    = fs.Float64("scale", 1, "compute-duration scale factor")
		twoLock  = fs.Bool("twolock", false, "use the two-lock queue optimization")
		contexts = fs.Int("contexts", 24, "hardware contexts in the simulator (0 = unlimited)")
		backend  = fs.String("backend", "sim", "execution backend: sim or live")
		out      = fs.String("o", "", "write binary trace to this file")
		jsonOut  = fs.String("json", "", "write JSON trace to this file")
		top      = fs.Int("top", 10, "locks to list in the report (0 = all)")
		gantt    = fs.Bool("gantt", false, "print an ASCII timeline with the critical path")
		thr      = fs.Bool("threadstats", false, "print per-thread statistics")
		svgOut   = fs.String("svg", "", "write an SVG timeline to this file")
		segdir   = cliflags.SegDir(fs)
		spill    = cliflags.Spill(fs)
		parSeg   = cliflags.Par(fs)
		annBud   = cliflags.AnnBudget(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range workloads.Names() {
			s, _ := workloads.Get(n)
			opt := ""
			if s.SupportsTwoLock {
				opt = " [-twolock]"
			}
			fmt.Printf("%-10s %s%s\n           %s\n", s.Name, s.Desc, opt, s.Paper)
		}
		return nil
	}

	var spec workloads.Spec
	if *synthIn != "" {
		f, err := os.Open(*synthIn)
		if err != nil {
			return err
		}
		cfg, err := synth.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		spec = cfg.Spec()
	} else {
		var err error
		spec, err = workloads.Get(*name)
		if err != nil {
			return err
		}
	}
	params := workloads.Params{Threads: *threads, Seed: *seed, Scale: *scale, TwoLock: *twoLock}

	var rt harness.Runtime
	var col *trace.Collector
	switch *backend {
	case "sim":
		s := sim.New(sim.Config{Contexts: *contexts, Seed: *seed})
		rt, col = s, s.Collector()
	case "live":
		l := livetrace.New(livetrace.Config{Seed: *seed})
		rt, col = l, l.Collector()
	default:
		return fmt.Errorf("unknown backend %q (want sim or live)", *backend)
	}

	if *spill > 0 && *segdir == "" {
		return fmt.Errorf("-spill requires -segdir")
	}
	var spiller *segment.Spiller
	if *spill > 0 {
		// Spilling keeps collection memory bounded: per-thread buffers
		// flush to sorted run files mid-run and the full event array is
		// never materialized, so the trace must be analyzed by
		// streaming and cannot also be written as one file.
		if *out != "" || *jsonOut != "" || *gantt || *svgOut != "" {
			return fmt.Errorf("-spill streams the trace; -o, -json, -gantt and -svg need it in memory")
		}
		var err error
		spiller, err = segment.NewSpiller(*segdir, segment.Options{})
		if err != nil {
			return err
		}
		col.SetSpill(spiller, *spill)
	}

	tr, elapsed, err := workloads.Run(rt, spec, params)
	if err != nil {
		return fmt.Errorf("running %s: %w", spec.Name, err)
	}

	if spiller != nil {
		rdr, err := spiller.Finish(col)
		if err != nil {
			return fmt.Errorf("finishing spill: %w", err)
		}
		fmt.Printf("wrote segmented trace to %s (%d events, %d segments)\n",
			*segdir, rdr.NumEvents(), rdr.NumSegments())
		an, err := critlock.Analyze(critlock.SegmentsSource(rdr),
			critlock.WithParallelSegments(*parSeg),
			critlock.WithAnnotationBudget(*annBud))
		if err != nil {
			return fmt.Errorf("analyzing: %w", err)
		}
		fmt.Printf("completed in %d ns (virtual for sim backend)\n", elapsed)
		report.Summary(os.Stdout, an)
		fmt.Println()
		if err := report.LockReport(an, *top).Render(os.Stdout); err != nil {
			return err
		}
		if *thr {
			fmt.Println()
			if err := report.ThreadReport(an).Render(os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}

	if *segdir != "" {
		if err := segment.WriteTrace(*segdir, tr, segment.Options{}); err != nil {
			return fmt.Errorf("writing segments to %s: %w", *segdir, err)
		}
		fmt.Printf("wrote segmented trace to %s\n", *segdir)
	}

	if *out != "" {
		if err := writeTrace(*out, tr, trace.WriteBinary); err != nil {
			return err
		}
		fmt.Printf("wrote binary trace to %s\n", *out)
	}
	if *jsonOut != "" {
		if err := writeTrace(*jsonOut, tr, trace.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote JSON trace to %s\n", *jsonOut)
	}

	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		return fmt.Errorf("analyzing: %w", err)
	}
	fmt.Printf("completed in %d ns (virtual for sim backend)\n", elapsed)
	report.Summary(os.Stdout, an)
	fmt.Println()
	if err := report.LockReport(an, *top).Render(os.Stdout); err != nil {
		return err
	}
	if *thr {
		fmt.Println()
		if err := report.ThreadReport(an).Render(os.Stdout); err != nil {
			return err
		}
	}
	if *gantt {
		g, err := report.Gantt(an, critlock.TraceSegments(tr), 100)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(g)
	}
	if *svgOut != "" {
		svg, err := report.SVGGantt(an, critlock.TraceSegments(tr), 1200)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote SVG timeline to %s\n", *svgOut)
	}
	return nil
}

func writeTrace(path string, tr *trace.Trace, write func(w io.Writer, tr *trace.Trace) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
