// Command cla is the offline analysis module: it reads a trace file
// (binary .cltr or JSON, told apart by their first bytes) produced by
// clasim or by an instrumented program and prints the critical lock
// analysis report — the role of the paper's post-processing analysis
// module (Fig. 3).
//
//	cla trace.cltr
//	cla -top 0 -threadstats -gantt trace.cltr
//	cla -csv trace.cltr            # lock table as CSV
//	cla -segdir segs/              # stream a segmented trace, bounded memory
//	cla -hazards trace.cltr        # predict feasible deadlocks and lost signals
//	cla -jsonreport analysis.json trace.cltr   # JSON analysis for clalint -report
package main

import (
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

	// Both input kinds run one path: the analysis, and every section
	// that replays events, read the same segment source — the open
	// directory, or the decoded file viewed as in-memory segments.
	var name string
	var src core.SegmentSource
	var source critlock.AnalysisSource
	streamed := *segdir != "" && fs.NArg() == 0
	if streamed {
		name = *segdir
		rdr, err := segment.OpenWith(*segdir, segment.ReadOptions{NoMmap: !*mmap})
		if err != nil {
			return fmt.Errorf("analyzing %s: %w", name, err)
		}
		defer rdr.Close()
		src, source = rdr, critlock.SegmentsSource(rdr)
	} else {
		if fs.NArg() != 1 {
			fs.Usage()
			return fmt.Errorf("expected exactly one trace file argument (or -segdir DIR alone)")
		}
		name = fs.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		tr, err := trace.Decode(data)
		if err != nil {
			return fmt.Errorf("reading %s: %w", name, err)
		}
		if *segdir != "" {
			// Conversion mode: a trace file plus -segdir rewrites the
			// trace as a segmented directory for later streaming runs.
			if err := segment.WriteTrace(*segdir, tr, segment.Options{}); err != nil {
				return fmt.Errorf("writing segments to %s: %w", *segdir, err)
			}
			fmt.Printf("wrote segmented trace to %s (%d events)\n", *segdir, len(tr.Events))
		}
		src, source = critlock.TraceSegments(tr), critlock.TraceSource(tr)
	}
	an, err := critlock.Analyze(source,
		critlock.WithClipHold(!*noClip),
		critlock.WithWindow(*window),
		critlock.WithComposition(*compose || *reportOut != ""),
		critlock.WithParallelSegments(*parSeg),
		critlock.WithAnnotationBudget(*annBudget))
	if err != nil {
		return fmt.Errorf("analyzing %s: %w", name, err)
	}

	var hazRep *hazard.Report
	if *hazards {
		if hazRep, err = hazard.FromSegments(src, *parSeg); err != nil {
			return fmt.Errorf("hazard analysis of %s: %w", name, err)
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
		g, err := report.Gantt(an, src, 100)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(g)
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
		if err := p.ObserveAll(src); err != nil {
			return err
		}
		pt := report.NewTable("Online prediction vs critical-path walk", "Rank", "Predictor", "Walk (ground truth)")
		ranking := p.Ranking()
		for i := 0; i < 3 && i < len(ranking) && i < len(an.Locks); i++ {
			pt.AddRow(fmt.Sprint(i+1), an.Trace.ObjName(ranking[i].Lock), an.Locks[i].Name)
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
		sa, err := an.Slack(src)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := report.SlackReport(sa, *top).Render(os.Stdout); err != nil {
			return err
		}
	}
	if hazRep != nil {
		fmt.Println()
		hazard.WriteText(os.Stdout, hazRep)
	}
	if *jsonReport != "" {
		rf, err := os.Create(*jsonReport)
		if err != nil {
			return err
		}
		rep := report.BuildExport("cla", name, streamed, an)
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
		doc, err := report.Full(an, src, report.FullOptions{
			TopLocks:  *top,
			Windows:   *windows,
			Threads:   *thr,
			LockOrder: *lockOrder,
			Slack:     *slack,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportOut, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote markdown report to %s\n", *reportOut)
	}
	if *svgOut != "" {
		svg, err := report.SVGGantt(an, src, 1200)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote SVG timeline to %s\n", *svgOut)
	}
	if *lockOrder {
		lo, err := hazard.LockOrderOf(src)
		if err != nil {
			return err
		}
		fmt.Println()
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
