package experiments

import (
	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/workloads"
)

// extension-online: evaluate the online criticality predictor (the
// §VII future-work building block) against the full critical-path
// analysis. For every workload, compare the lock the predictor ranks
// first — computable at run time from a forward event stream — with
// the ground-truth critical lock, and with the naive wait-time ranking
// that prior tools would use online.
func init() {
	register(Experiment{
		ID:    "extension-online",
		Title: "Extension: online criticality prediction vs ground truth (paper §VII)",
		Paper: "motivated by §VII: 'if one knows which locks are most critical at run time'",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults()
			apps := []struct {
				name    string
				threads int
			}{
				{"micro", 4},
				{"radiosity", 24},
				{"raytrace", 24},
				{"tsp", 24},
				{"uts", 24},
				{"volrend", 24},
				{"waternsq", 24},
			}
			if o.Quick {
				apps = apps[:3]
			}
			r := &Result{ID: "extension-online", Title: "Online predictor evaluation"}
			t := report.NewTable("",
				"Workload", "Ground truth (CP walk)", "Predictor (online)", "Wait-based (online)",
				"Predictor correct", "Wait-based correct")
			predictorHits, waitHits := 0, 0
			for _, app := range apps {
				an, src, _, err := runTraced(app.name, workloads.Params{Threads: app.threads}, o)
				if err != nil {
					return nil, err
				}
				truth := an.Locks[0].Name

				p := core.NewPredictor()
				if err := p.ObserveAll(src); err != nil {
					return nil, err
				}
				pred := an.Trace.ObjName(p.Top())
				waitTop := "<none>"
				if wr := p.WaitRanking(); len(wr) > 0 {
					waitTop = an.Trace.ObjName(wr[0].Lock)
				}
				pOK, wOK := pred == truth, waitTop == truth
				if pOK {
					predictorHits++
				}
				if wOK {
					waitHits++
				}
				t.AddRow(app.name, truth, pred, waitTop, boolMark(pOK), boolMark(wOK))
			}
			r.Tables = append(r.Tables, t)
			notef(r, "Predictor top-1 agreement: %d/%d; wait-time baseline: %d/%d. The predictor needs only a forward event stream and O(locks) state — deployable inside a runtime, unlike the offline backward walk.",
				predictorHits, len(apps), waitHits, len(apps))
			return r, nil
		},
	})
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
