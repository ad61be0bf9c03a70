// Command cla is the offline analysis module: it reads a trace file
// (binary .cltr or JSON) produced by clasim or by an instrumented
// program and prints the critical lock analysis report — the role of
// the paper's post-processing analysis module (Fig. 3).
//
//	cla trace.cltr
//	cla -json trace.json
//	cla -top 0 -threadstats -gantt trace.cltr
//	cla -csv trace.cltr            # lock table as CSV
//	cla -segdir segs/              # stream a segmented trace, bounded memory
//	cla -hazards trace.cltr        # predict feasible deadlocks and lost signals
//	cla -jsonreport analysis.json trace.cltr   # JSON analysis for clalint -report
//	cla -stream -segdir segs/ trace.cltr   # convert a trace into segments
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"critlock"
	"critlock/internal/cliflags"
	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cla:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cla", flag.ContinueOnError)
	var (
		jsonIn     = fs.Bool("json", false, "input is JSON instead of binary")
		streamIn   = fs.Bool("stream", false, "input is the incremental stream format (tolerates truncation)")
		top        = fs.Int("top", 10, "locks to list (0 = all)")
		thr        = fs.Bool("threadstats", false, "print per-thread statistics")
		gantt      = fs.Bool("gantt", false, "print the execution timeline")
		csvOut     = fs.Bool("csv", false, "emit the lock table as CSV instead of text")
		noClip     = fs.Bool("noclip", false, "credit full hold time to on-path invocations (ablation)")
		windows    = fs.Int("windows", 0, "split the run into N windows and show per-window criticality")
		lockOrder  = fs.Bool("lockorder", false, "print the lock acquisition-order graph and deadlock cycles")
		hazards    = fs.Bool("hazards", false, "predict dynamic hazards: feasible deadlocks (cross-thread lock-order cycles), lost signals, guard inconsistencies")
		compose    = fs.Bool("composition", false, "print the critical path composition breakdown")
		svgOut     = fs.String("svg", "", "write an SVG timeline to this file")
		slack      = fs.Bool("slack", false, "print per-lock slack (distance from the critical path)")
		phases     = fs.Int("phases", 0, "segment the run by dominant lock at this window resolution")
		predict    = fs.Bool("predict", false, "run the online criticality predictor and compare with the walk")
		markdown   = fs.Bool("markdown", false, "emit the lock table as GitHub markdown instead of text")
		reportOut  = fs.String("report", "", "write a complete markdown report to this file")
		jsonReport = fs.String("jsonreport", "", "write the analysis as JSON (the clasrv format; clalint -report input) to this file")
		narrate    = fs.Int("narrate", -1, "narrate the critical path's thread hops (0 = all, N = cap)")
		segdir     = cliflags.SegDir(fs)
		window     = cliflags.Window(fs)
		parSeg     = cliflags.Par(fs)
		mmap       = cliflags.Mmap(fs)
		annBudget  = cliflags.AnnBudget(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	var an *core.Analysis

	if *segdir != "" && fs.NArg() == 0 {
		// Streaming mode: analyze the segment directory without ever
		// materializing the event array. Sections that replay the raw
		// event stream are unavailable by construction.
		for flagName, set := range map[string]bool{
			"-gantt": *gantt, "-svg": *svgOut != "", "-predict": *predict,
			"-lockorder": *lockOrder, "-slack": *slack, "-report": *reportOut != "",
		} {
			if set {
				return fmt.Errorf("%s %w; rerun on a trace file without -segdir", flagName, critlock.ErrNeedsRawEvents)
			}
		}
		var err error
		an, err = critlock.Analyze(critlock.SegmentDirSource(*segdir),
			critlock.WithClipHold(!*noClip),
			critlock.WithWindow(*window),
			critlock.WithComposition(*compose),
			critlock.WithParallelSegments(*parSeg),
			critlock.WithMmap(*mmap),
			critlock.WithAnnotationBudget(*annBudget))
		if err != nil {
			return fmt.Errorf("analyzing %s: %w", *segdir, err)
		}
		tr = an.Trace // registration skeleton: names and metadata only
	} else {
		if fs.NArg() != 1 {
			fs.Usage()
			return fmt.Errorf("expected exactly one trace file argument (or -segdir DIR alone)")
		}
		path := fs.Arg(0)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()

		switch {
		case *streamIn:
			tr, err = trace.ReadStream(f)
			if err != nil && errors.Is(err, trace.ErrTruncatedStream) && len(tr.Events) > 0 {
				fmt.Fprintf(os.Stderr, "cla: warning: %v — analyzing the durable prefix (%d events)\n", err, len(tr.Events))
				err = nil
			}
		case *jsonIn:
			tr, err = trace.ReadJSON(f)
		default:
			tr, err = trace.ReadBinary(f)
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}

		if *segdir != "" {
			// Conversion mode: a trace file plus -segdir rewrites the
			// trace as a segmented directory for later streaming runs.
			if err := segment.WriteTrace(*segdir, tr, segment.Options{}); err != nil {
				return fmt.Errorf("writing segments to %s: %w", *segdir, err)
			}
			fmt.Printf("wrote segmented trace to %s (%d events)\n", *segdir, len(tr.Events))
		}

		an, err = critlock.Analyze(critlock.TraceSource(tr),
			critlock.WithClipHold(!*noClip))
		if err != nil {
			return fmt.Errorf("analyzing: %w", err)
		}
	}

	// The hazard pass is event-replay-capable in both modes: over the
	// in-memory trace directly, or segment-range parallel over the
	// directory (so -hazards composes with -segdir, unlike -lockorder).
	var hazRep *hazard.Report
	if *hazards {
		if *segdir != "" && fs.NArg() == 0 {
			rdr, err := segment.OpenWith(*segdir, segment.ReadOptions{NoMmap: !*mmap})
			if err != nil {
				return err
			}
			hazRep, err = hazard.FromSegments(rdr, *parSeg)
			rdr.Close()
			if err != nil {
				return fmt.Errorf("hazard analysis of %s: %w", *segdir, err)
			}
		} else {
			var err error
			hazRep, err = hazard.FromTrace(tr)
			if err != nil {
				return fmt.Errorf("hazard analysis: %w", err)
			}
		}
	}

	if *csvOut {
		return report.LockReport(an, *top).CSV(os.Stdout)
	}
	if *markdown {
		return report.LockReport(an, *top).Markdown(os.Stdout)
	}
	report.Summary(os.Stdout, an)
	fmt.Println()
	if err := report.LockReport(an, *top).Render(os.Stdout); err != nil {
		return err
	}
	if an.Totals.Channels > 0 {
		fmt.Println()
		if err := report.ChanReport(an, *top).Render(os.Stdout); err != nil {
			return err
		}
	}
	if *thr {
		fmt.Println()
		if err := report.ThreadReport(an).Render(os.Stdout); err != nil {
			return err
		}
	}
	if *gantt {
		fmt.Println()
		fmt.Print(report.Gantt(an, 100))
	}
	if *compose {
		fmt.Println()
		if err := report.CompositionReport(an).Render(os.Stdout); err != nil {
			return err
		}
	}
	if *windows > 0 {
		fmt.Println()
		if err := report.WindowReport(an, *windows).Render(os.Stdout); err != nil {
			return err
		}
	}
	if *narrate >= 0 {
		fmt.Println()
		fmt.Print(report.Narrate(an, *narrate))
	}
	if *predict {
		fmt.Println()
		p := core.NewPredictor()
		p.ObserveAll(tr)
		pt := report.NewTable("Online prediction vs critical-path walk", "Rank", "Predictor", "Walk (ground truth)")
		ranking := p.Ranking()
		for i := 0; i < 3 && i < len(ranking) && i < len(an.Locks); i++ {
			pt.AddRow(fmt.Sprint(i+1), tr.ObjName(ranking[i].Lock), an.Locks[i].Name)
		}
		if err := pt.Render(os.Stdout); err != nil {
			return err
		}
	}
	if *phases > 0 {
		fmt.Println()
		if err := report.PhaseReport(an, *phases).Render(os.Stdout); err != nil {
			return err
		}
	}
	if *slack {
		fmt.Println()
		if err := report.SlackReport(an.Slack(), *top).Render(os.Stdout); err != nil {
			return err
		}
	}
	if hazRep != nil {
		fmt.Println()
		hazard.WriteText(os.Stdout, hazRep)
	}
	if *jsonReport != "" {
		source := "trace"
		if fs.NArg() == 1 {
			source = fs.Arg(0)
		} else if *segdir != "" {
			source = *segdir
		}
		rf, err := os.Create(*jsonReport)
		if err != nil {
			return err
		}
		rep := report.BuildExport("cla", source, *segdir != "" && fs.NArg() == 0, an)
		rep.Hazards = hazRep
		if err := report.WriteExport(rf, rep); err != nil {
			rf.Close()
			return err
		}
		if err := rf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote JSON analysis report to %s\n", *jsonReport)
	}
	if *reportOut != "" {
		doc := report.Full(an, report.FullOptions{
			TopLocks:  *top,
			Windows:   *windows,
			Threads:   *thr,
			LockOrder: *lockOrder,
			Slack:     *slack,
		})
		if err := os.WriteFile(*reportOut, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote markdown report to %s\n", *reportOut)
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(report.SVGGantt(an, 1200)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote SVG timeline to %s\n", *svgOut)
	}
	if *lockOrder {
		fmt.Println()
		lo := core.LockOrderOf(tr)
		if err := report.LockOrderReport(lo).Render(os.Stdout); err != nil {
			return err
		}
		if lo.HasCycle() {
			fmt.Println("WARNING: lock-order inversion cycles (potential deadlocks):")
			for _, cyc := range lo.CycleNames() {
				fmt.Printf("  %v\n", cyc)
			}
		} else {
			fmt.Println("no lock-order inversion cycles found")
		}
	}
	return nil
}
