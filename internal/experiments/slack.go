package experiments

import (
	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/workloads"
)

// extension-slack: the walk yields one critical path; slack analysis
// (a PERT late-time pass over the same event graph) additionally
// quantifies how far every other lock is from that path. On the
// paper's own Fig. 1 example it answers the question the binary
// critical/normal distinction leaves open: L4 is not just "off the
// path" — it has exactly 3 time units of slack, so growing its
// critical section by more than 3 units WOULD make it critical. It
// also reports, for a real workload, how many locks sit off the path
// and how much room they have.
func init() {
	register(Experiment{
		ID:    "extension-slack",
		Title: "Extension: slack — how far every lock is from the critical path",
		Paper: "companion to §II/Fig. 1 (quantifying 'overlapped by the critical path')",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults()
			r := &Result{ID: "extension-slack", Title: "Slack analysis"}

			// Fig. 1: the paper's illustrative execution.
			fig1 := Fig1Trace()
			anFig1, err := core.AnalyzeDefault(fig1)
			if err != nil {
				return nil, err
			}
			saFig1, err := anFig1.Slack(core.TraceSegments(fig1))
			if err != nil {
				return nil, err
			}
			t := report.SlackReport(saFig1, 0)
			t.Title = "Fig. 1 execution (1 unit = 1000 ns)"
			r.Tables = append(r.Tables, t)
			var l4 core.LockSlack
			for _, l := range saFig1.Locks {
				if l.Name == "L4" {
					l4 = l
				}
			}
			notef(r, "L4 — the lock idleness-based tools would flag — has %d ns of slack: its critical section could grow by %d units before it delays completion at all.",
				l4.MinSlack, l4.MinSlack/1000)

			// A real workload: distribution of off-path locks.
			threads := 24
			if o.Quick {
				threads = 8
			}
			an, src, _, err := runTraced("waternsq", workloads.Params{Threads: threads}, o)
			if err != nil {
				return nil, err
			}
			sa, err := an.Slack(src)
			if err != nil {
				return nil, err
			}
			on, off := 0, 0
			var minOff core.LockSlack
			for _, l := range sa.Locks {
				if l.OnCP {
					on++
					continue
				}
				off++
				if minOff.Name == "" || l.MinSlack < minOff.MinSlack {
					minOff = l
				}
			}
			notef(r, "waternsq at %d threads: %d locks touch the critical path, %d never do; the nearest off-path lock is %s at %d ns slack (path length %d ns).",
				threads, on, off, minOff.Name, minOff.MinSlack, an.CP.Length)
			notef(r, "Consistency check: every lock the walk marks critical has zero slack, and vice versa: %v",
				slackConsistent(sa))
			return r, nil
		},
	})
}

// slackConsistent verifies the cross-validation property between the
// backward walk (one path) and the PERT pass (all paths): a lock is on
// the walked path only if its slack is zero.
func slackConsistent(sa *core.SlackAnalysis) bool {
	for _, l := range sa.Locks {
		if l.OnCP && l.MinSlack != 0 {
			return false
		}
	}
	return true
}
