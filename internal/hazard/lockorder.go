package hazard

import (
	"fmt"
	"sort"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// LockOrderEdge records that some thread obtained To while itself
// holding From, with how often that nesting occurred.
type LockOrderEdge struct {
	From, To trace.ObjID
	FromName string
	ToName   string
	Count    int
}

// LockOrder is the classical lock acquisition-order graph of a trace
// plus its cyclic components. A cycle (e.g. A→B and B→A observed on
// different threads) is a potential deadlock: the trace happened to
// complete, but another interleaving could hang.
//
// It is a view of the hazard fold's edge aggregate: an edge counts the
// obtains that realized it from the obtaining thread's own holds
// (Count − CrossCount), and an edge realized only across threads is
// left out.
type LockOrder struct {
	// Edges in deterministic (FromName, ToName) order, ties broken by
	// (From, To) ID.
	Edges []LockOrderEdge
	// Cycles lists the strongly connected components with more than
	// one lock, each sorted by name (ties by ID). Self-loops are not
	// cycles: re-obtaining a held lock records no edge.
	Cycles [][]trace.ObjID

	skel *trace.Trace
}

// HasCycle reports whether any potential deadlock cycle exists.
func (lo *LockOrder) HasCycle() bool { return len(lo.Cycles) > 0 }

// CycleNames renders each cycle as lock names.
func (lo *LockOrder) CycleNames() [][]string {
	out := make([][]string, len(lo.Cycles))
	for i, cyc := range lo.Cycles {
		for _, id := range cyc {
			out[i] = append(out[i], lo.skel.ObjName(id))
		}
	}
	return out
}

// LockOrderOf folds src through the hazard machine and returns its
// intra-thread lock order.
func LockOrderOf(src core.SegmentSource) (*LockOrder, error) {
	m, err := fold(src, 1)
	if err != nil {
		return nil, err
	}
	lo := &LockOrder{skel: m.tr}
	var keys []edgeKey
	for _, k := range m.edgeKeys() {
		agg := m.edges[k]
		if n := agg.count - agg.crossCount; n > 0 {
			keys = append(keys, k)
			lo.Edges = append(lo.Edges, LockOrderEdge{
				From: k.from, To: k.to,
				FromName: m.objName(k.from), ToName: m.objName(k.to),
				Count: n,
			})
		}
	}
	for _, comp := range m.components(keys) {
		sort.Slice(comp, func(i, j int) bool { return m.before(comp[i], comp[j]) })
		lo.Cycles = append(lo.Cycles, comp)
	}
	sort.Slice(lo.Cycles, func(i, j int) bool {
		return fmt.Sprint(lo.Cycles[i]) < fmt.Sprint(lo.Cycles[j])
	})
	return lo, nil
}
