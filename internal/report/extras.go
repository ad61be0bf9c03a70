package report

import (
	"fmt"

	"critlock/internal/core"
	"critlock/internal/hazard"
)

// WindowReport renders per-time-window lock criticality: which lock
// dominates the critical path in each slice of the run.
func WindowReport(an *core.Analysis, n int) *Table {
	t := NewTable("",
		"Window", "Time range ns", "Path time ns", "Top lock", "Top lock share", "Locks on path")
	for i, w := range an.Windows(n) {
		top := w.Top()
		t.AddRow(
			fmt.Sprint(i),
			fmt.Sprintf("%d..%d", w.From, w.To),
			fmt.Sprint(w.PathTime),
			top.Name,
			Pct(top.PctOfWindow),
			fmt.Sprint(len(w.Locks)),
		)
	}
	return t
}

// CompositionReport renders the critical path's breakdown.
func CompositionReport(an *core.Analysis) *Table {
	c := an.Composition()
	pct := func(v int64) string {
		if c.Total <= 0 {
			return Pct(0)
		}
		return Pct(100 * float64(v) / float64(c.Total))
	}
	t := NewTable("", "Critical path component", "Time ns", "Share")
	t.AddRow("inside critical sections", fmt.Sprint(c.LockHold), pct(int64(c.LockHold)))
	t.AddRow("compute outside critical sections", fmt.Sprint(c.Compute), pct(int64(c.Compute)))
	t.AddRow("unattributed wait", fmt.Sprint(c.Wait), pct(int64(c.Wait)))
	t.AddRow("total", fmt.Sprint(c.Total), Pct(100))
	return t
}

// PhaseReport renders the run segmented by dominant critical lock.
func PhaseReport(an *core.Analysis, resolution int) *Table {
	t := NewTable("", "Phase", "Time range ns", "Dominant lock", "Share of phase path")
	for i, p := range an.Phases(resolution) {
		t.AddRow(fmt.Sprint(i), fmt.Sprintf("%d..%d", p.From, p.To), p.Top, Pct(p.TopPct))
	}
	return t
}

// SlackReport renders locks by their distance from the critical path
// (0 = on it; small = next bottleneck candidates).
func SlackReport(sa *core.SlackAnalysis, topN int) *Table {
	t := NewTable("", "Lock", "Min slack ns", "On critical path")
	locks := sa.Locks
	if topN > 0 && topN < len(locks) {
		locks = locks[:topN]
	}
	for _, l := range locks {
		on := "no"
		if l.OnCP {
			on = "yes"
		}
		t.AddRow(l.Name, fmt.Sprint(l.MinSlack), on)
	}
	return t
}

// LockOrderReport renders the acquisition-order graph and any
// potential deadlock cycles.
func LockOrderReport(lo *hazard.LockOrder) *Table {
	t := NewTable("", "Held lock", "Then acquired", "Times")
	for _, e := range lo.Edges {
		t.AddRow(e.FromName, e.ToName, fmt.Sprint(e.Count))
	}
	return t
}
