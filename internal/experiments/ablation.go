package experiments

import (
	"fmt"

	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// ablation-fairness: the simulator's mutex wakeup policy (FIFO vs
// LIFO vs random) is a modelling choice; this experiment shows the
// analysis results are robust to it — completion time and the top
// lock's CP share move only marginally.
func init() {
	register(Experiment{
		ID:    "ablation-fairness",
		Title: "Ablation: mutex wakeup policy (DESIGN.md §6)",
		Paper: "design choice, not a paper artifact",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults()
			threads := 16
			if o.Quick {
				threads = 8
			}
			spec, err := workloads.Get("radiosity")
			if err != nil {
				return nil, err
			}
			r := &Result{ID: "ablation-fairness", Title: "Wakeup-policy ablation (radiosity)"}
			t := report.NewTable("", "Policy", "Completion ns", "Top lock", "CP Time %", "Cont. Prob. on CP %")
			for _, pol := range []sim.WakePolicy{sim.WakeFIFO, sim.WakeLIFO, sim.WakeRandom} {
				s := sim.New(sim.Config{Contexts: o.Contexts, Seed: o.Seed, WakePolicy: pol})
				tr, elapsed, err := workloads.Run(s, spec, workloads.Params{Threads: threads, Seed: o.Seed})
				if err != nil {
					return nil, fmt.Errorf("policy %v: %w", pol, err)
				}
				an, err := core.AnalyzeDefault(tr)
				if err != nil {
					return nil, err
				}
				top := an.Locks[0]
				t.AddRow(pol.String(), fmt.Sprint(elapsed), top.Name, report.Pct(top.CPTimePct), report.Pct(top.ContProbOnCP))
			}
			r.Tables = append(r.Tables, t)
			notef(r, "The identified critical lock is stable across wakeup policies; FIFO is the default because the analyzer's waker resolution is exact under it.")
			return r, nil
		},
	})
}

// nestedHoldTrace builds a two-thread execution where thread A blocks
// on an inner lock while holding an outer one, so only part of the
// outer hold lies on the walked path.
func nestedHoldTrace() *trace.Trace {
	b := trace.NewBuilder()
	a := b.Thread("A", trace.NoThread)
	c := b.Thread("B", a)
	outer := b.Mutex("outer")
	inner := b.Mutex("inner")
	b.Start(0, a)
	b.Start(0, c)
	// B holds inner 0..60; A takes outer at 10, blocks on inner at 20,
	// gets it at 60, releases everything by 100 and is the last to
	// exit. The walk jumps from A's inner obtain into B, so A's outer
	// hold [10,100] is only partially walked.
	b.Event(0, c, trace.EvLockAcquire, inner, 0)
	b.Event(0, c, trace.EvLockObtain, inner, 0)
	b.Event(10, a, trace.EvLockAcquire, outer, 0)
	b.Event(10, a, trace.EvLockObtain, outer, 0)
	b.Event(20, a, trace.EvLockAcquire, inner, 0)
	b.Event(60, c, trace.EvLockRelease, inner, 0)
	b.Event(60, a, trace.EvLockObtain, inner, 1)
	b.Exit(70, c)
	b.Event(90, a, trace.EvLockRelease, inner, 0)
	b.Event(100, a, trace.EvLockRelease, outer, 0)
	b.Exit(110, a)
	return b.Trace()
}

// ablation-clipping: clipped vs full hold accounting for hot critical
// sections (Options.ClipHold).
func init() {
	register(Experiment{
		ID:    "ablation-clipping",
		Title: "Ablation: clipped vs full hold accounting (DESIGN.md §6)",
		Paper: "design choice, not a paper artifact",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults()
			threads := 16
			if o.Quick {
				threads = 8
			}
			spec, err := workloads.Get("radiosity")
			if err != nil {
				return nil, err
			}
			s := sim.New(sim.Config{Contexts: o.Contexts, Seed: o.Seed})
			tr, _, err := workloads.Run(s, spec, workloads.Params{Threads: threads, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			clipped, err := core.Analyze(tr, core.Options{ClipHold: true})
			if err != nil {
				return nil, err
			}
			full, err := core.Analyze(tr, core.Options{ClipHold: false})
			if err != nil {
				return nil, err
			}
			r := &Result{ID: "ablation-clipping", Title: "Hold-clipping ablation"}
			t := report.NewTable("", "Scenario", "Accounting", "Top lock", "CP Time %", "Sum of CP Time % over locks")
			sum := func(an *core.Analysis) float64 {
				var s float64
				for _, l := range an.Locks {
					s += l.CPTimePct
				}
				return s
			}
			t.AddRow("radiosity (no nesting)", "clipped (default)", clipped.Locks[0].Name, report.Pct(clipped.Locks[0].CPTimePct), report.Pct(sum(clipped)))
			t.AddRow("radiosity (no nesting)", "full hold", full.Locks[0].Name, report.Pct(full.Locks[0].CPTimePct), report.Pct(sum(full)))

			// With nested locks, an outer hold can be only partially
			// walked (the path leaves the thread at an inner blocked
			// obtain), and the two accountings diverge.
			ntr := nestedHoldTrace()
			nClipped, err := core.Analyze(ntr, core.Options{ClipHold: true})
			if err != nil {
				return nil, err
			}
			nFull, err := core.Analyze(ntr, core.Options{ClipHold: false})
			if err != nil {
				return nil, err
			}
			t.AddRow("nested locks", "clipped (default)", "outer", report.Pct(nClipped.Lock("outer").CPTimePct), report.Pct(sum(nClipped)))
			t.AddRow("nested locks", "full hold", "outer", report.Pct(nFull.Lock("outer").CPTimePct), report.Pct(sum(nFull)))
			r.Tables = append(r.Tables, t)
			notef(r, "Workloads without nested locks are insensitive to the choice (every walked hold is walked whole). With nesting, full-hold accounting credits off-path hold time to invocations that merely touch the path, so shares can exceed the path's true composition; clipping keeps per-lock shares a partition of the critical path.")
			return r, nil
		},
	})
}
