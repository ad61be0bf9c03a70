package experiments

import (
	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/trace"
)

// Fig1Trace reconstructs the paper's Fig. 1 illustrative execution:
// four threads, four locks, a 33-unit critical path. L2 guards four
// 3-unit hot critical sections (36.36% of the path, 75% contended on
// it); L1 one 1-unit hot critical section; L3 is an uncontended
// critical lock; and L4 — the lock with the longest idle time, the
// one idleness-based tools would flag — is entirely off the path.
// Times are scaled to microseconds so the Gantt renders cleanly.
func Fig1Trace() *trace.Trace {
	const u = 1000 // one Fig. 1 time unit
	b := trace.NewBuilder()
	b.Meta("workload", "fig1")
	t1 := b.Thread("T1", trace.NoThread)
	t2 := b.Thread("T2", t1)
	t3 := b.Thread("T3", t1)
	t4 := b.Thread("T4", t1)
	l1 := b.Mutex("L1")
	l2 := b.Mutex("L2")
	l3 := b.Mutex("L3")
	l4 := b.Mutex("L4")

	b.Start(0, t1)
	b.Start(0, t2)
	b.Start(0, t3)
	b.Start(0, t4)

	b.CS(t1, l1, 2*u, 2*u, 3*u)
	b.CS(t1, l2, 8*u, 8*u, 11*u)
	b.Exit(14*u, t1)

	b.CS(t2, l2, 9*u, 11*u, 14*u)
	b.Exit(20*u, t2)

	b.CS(t3, l4, 4*u, 4*u, 13*u)
	b.CS(t3, l2, 13*u, 14*u, 17*u)
	b.Exit(20*u, t3)

	b.CS(t4, l4, 5*u, 13*u, 14*u)
	b.CS(t4, l2, 16*u, 17*u, 20*u)
	b.CS(t4, l3, 20*u, 20*u, 24*u)
	b.Exit(33*u, t4)

	return b.Trace()
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Concept execution and critical path (paper Fig. 1)",
		Paper: "Fig. 1 and §II",
		Run: func(o Options) (*Result, error) {
			tr := Fig1Trace()
			an, err := core.AnalyzeDefault(tr)
			if err != nil {
				return nil, err
			}
			r := &Result{ID: "fig1", Title: "Fig. 1 concept execution"}
			r.Tables = append(r.Tables, report.LockReport(an, 0))
			g, err := report.Gantt(an, core.TraceSegments(tr), 99)
			if err != nil {
				return nil, err
			}
			notef(r, "%s", g)
			notef(r, "Paper: L2 = 4 hot CS × 3 units = 36.36%% of the 33-unit path at 75%% contention; "+
				"L1 = 3.03%%; L3 uncontended but critical; L4 (longest idle time) off the path.")
			notef(r, "Measured: L2 = %.2f%% @ %.0f%% contention on CP; L1 = %.2f%%; L3 critical=%v; L4 critical=%v (max wait %d units).",
				an.Lock("L2").CPTimePct, an.Lock("L2").ContProbOnCP,
				an.Lock("L1").CPTimePct, an.Lock("L3").Critical, an.Lock("L4").Critical,
				an.Lock("L4").MaxWait/1000)
			return r, nil
		},
	})
}
