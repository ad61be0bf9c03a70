package core

import (
	"fmt"
	"sort"

	"critlock/internal/graph"
	"critlock/internal/trace"
)

// LockOrderEdge records that some thread acquired To while holding
// From, with how often that nesting occurred.
type LockOrderEdge struct {
	From, To trace.ObjID
	FromName string
	ToName   string
	Count    int
}

// LockOrder is the aggregated lock acquisition-order graph of a trace
// plus its cyclic components. A cycle (e.g. A→B and B→A observed on
// different threads) is a potential deadlock: the trace happened to
// complete, but another interleaving could hang.
type LockOrder struct {
	// Edges in deterministic (FromName, ToName) order, ties broken by
	// (From, To) ID.
	Edges []LockOrderEdge
	// Cycles lists the strongly connected components with more than
	// one lock, each sorted by name (ties by ID). Self-loops are not
	// cycles: re-obtaining a held lock records no edge.
	Cycles [][]trace.ObjID

	names map[trace.ObjID]string
}

// HasCycle reports whether any potential deadlock cycle exists.
func (lo *LockOrder) HasCycle() bool { return len(lo.Cycles) > 0 }

// CycleNames renders each cycle as lock names.
func (lo *LockOrder) CycleNames() [][]string {
	out := make([][]string, len(lo.Cycles))
	for i, cyc := range lo.Cycles {
		for _, id := range cyc {
			out[i] = append(out[i], lo.names[id])
		}
	}
	return out
}

// LockOrderOf scans a trace and builds the acquisition-order graph:
// one pass, tracking each thread's currently-held set.
func LockOrderOf(tr *trace.Trace) *LockOrder {
	type key struct{ from, to trace.ObjID }
	counts := map[key]int{}
	held := map[trace.ThreadID][]trace.ObjID{}

	for _, e := range tr.Events {
		switch e.Kind {
		case trace.EvLockObtain:
			for _, h := range held[e.Thread] {
				if h != e.Obj {
					counts[key{h, e.Obj}]++
				}
			}
			held[e.Thread] = append(held[e.Thread], e.Obj)
		case trace.EvLockRelease:
			hs := held[e.Thread]
			for i := len(hs) - 1; i >= 0; i-- {
				if hs[i] == e.Obj {
					held[e.Thread] = append(hs[:i], hs[i+1:]...)
					break
				}
			}
		}
	}

	lo := &LockOrder{names: map[trace.ObjID]string{}}
	for k, n := range counts {
		lo.names[k.from] = tr.ObjName(k.from)
		lo.names[k.to] = tr.ObjName(k.to)
		lo.Edges = append(lo.Edges, LockOrderEdge{
			From: k.from, To: k.to,
			FromName: tr.ObjName(k.from), ToName: tr.ObjName(k.to),
			Count: n,
		})
	}
	// Lock names may repeat, so every order below breaks name ties on
	// ObjID: the result must not depend on map iteration.
	before := func(a, b trace.ObjID) bool {
		if lo.names[a] != lo.names[b] {
			return lo.names[a] < lo.names[b]
		}
		return a < b
	}
	sort.Slice(lo.Edges, func(i, j int) bool {
		a, b := lo.Edges[i], lo.Edges[j]
		if a.FromName != b.FromName {
			return a.FromName < b.FromName
		}
		if a.ToName != b.ToName {
			return a.ToName < b.ToName
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})

	adj := map[trace.ObjID][]trace.ObjID{}
	var nodes []trace.ObjID
	for _, e := range lo.Edges {
		if adj[e.From] == nil {
			nodes = append(nodes, e.From)
		}
		adj[e.From] = append(adj[e.From], e.To)
	}
	sort.Slice(nodes, func(i, j int) bool { return before(nodes[i], nodes[j]) })
	// Components of more than one lock are the two-lock inversions and
	// larger rings; self-loops are never recorded.
	for _, comp := range graph.SCC(nodes, adj) {
		if len(comp) > 1 {
			sort.Slice(comp, func(i, j int) bool { return before(comp[i], comp[j]) })
			lo.Cycles = append(lo.Cycles, comp)
		}
	}
	sort.Slice(lo.Cycles, func(i, j int) bool {
		return fmt.Sprint(lo.Cycles[i]) < fmt.Sprint(lo.Cycles[j])
	})
	return lo
}
