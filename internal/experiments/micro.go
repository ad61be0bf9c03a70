package experiments

import (
	"fmt"

	"critlock/internal/report"
	"critlock/internal/workloads"
)

// fig6 reproduces the micro-benchmark identification + validation
// experiment: CP Time vs Wait Time for L1/L2 at 4 threads, and the
// measured speedup from shrinking each lock's critical section by the
// same amount (1 unit of the 2.0/2.5-unit loops). The paper's claim:
// CP Time picks L2, Wait Time picks L1, and optimizing L2 wins.
func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Micro-benchmark: CP Time vs Wait Time, speedup after optimization (paper Fig. 6)",
		Paper: "Fig. 6 and §V.B",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults()
			const threads = 4
			params := workloads.Params{Threads: threads, Seed: o.Seed}

			base := workloads.DefaultMicroConfig(threads)
			anBase, tBase, err := runBuilt(workloads.BuildMicro(base), params, o, "micro")
			if err != nil {
				return nil, err
			}
			// Shrink each critical section by the same 1.0ms (the
			// paper's "same amount of optimization efforts").
			optL1 := base
			optL1.CS1 -= 1_000_000
			_, tOptL1, err := runBuilt(workloads.BuildMicro(optL1), params, o, "micro-optL1")
			if err != nil {
				return nil, err
			}
			optL2 := base
			optL2.CS2 -= 1_000_000
			_, tOptL2, err := runBuilt(workloads.BuildMicro(optL2), params, o, "micro-optL2")
			if err != nil {
				return nil, err
			}

			spL1 := float64(tBase) / float64(tOptL1)
			spL2 := float64(tBase) / float64(tOptL2)

			r := &Result{ID: "fig6", Title: "Micro-benchmark identification and validation"}
			t := report.NewTable("",
				"Lock", "CP Time % (TYPE 1)", "Wait Time % (TYPE 2)", "Speedup after optimization",
				"Paper CP Time %", "Paper Wait Time %", "Paper speedup")
			l1, l2 := anBase.Lock("L1"), anBase.Lock("L2")
			t.AddRow("L1", report.Pct(l1.CPTimePct), report.Pct(l1.WaitTimePct), fmt.Sprintf("%.2f", spL1),
				"16.67%", "36.53%", "1.26")
			t.AddRow("L2", report.Pct(l2.CPTimePct), report.Pct(l2.WaitTimePct), fmt.Sprintf("%.2f", spL2),
				"83.33%", "9.02%", "1.37")
			r.Tables = append(r.Tables, t)

			ok := l2.CPTimePct > l1.CPTimePct && l1.WaitTimePct > l2.WaitTimePct && spL2 > spL1
			notef(r, "Shape check (CP Time picks L2, Wait Time picks L1, optimizing L2 wins): %v", ok)
			notef(r, "Completion times: base %d ns, L1-optimized %d ns, L2-optimized %d ns.", tBase, tOptL1, tOptL2)
			return r, nil
		},
	})
}

// fig7 renders the representative execution timeline of the
// micro-benchmark, showing L1's idle time overlapped by the critical
// path through CS2.
func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Micro-benchmark execution timeline (paper Fig. 7)",
		Paper: "Fig. 7",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults()
			an, src, _, err := runTraced("micro", workloads.Params{Threads: 4}, o)
			if err != nil {
				return nil, err
			}
			g, err := report.Gantt(an, src, 99)
			if err != nil {
				return nil, err
			}
			r := &Result{ID: "fig7", Title: "Micro-benchmark timeline"}
			notef(r, "%s", g)
			notef(r, "L1's waits (dots before the 'a' sections) overlap the critical path, which runs through the serialized L2 ('b') chain.")
			return r, nil
		},
	})
}
