package lint

import (
	"fmt"
	"sort"
	"strings"

	"critlock/internal/graph"
)

// callGraphEdges propagates lock acquisitions through the static call
// graph: if f calls g while holding A and g (transitively) acquires
// B, the program may order A before B without any inline nesting.
// Function literals are excluded — they run on other goroutines or at
// defer time, where no ordering with the spawn site exists.
func callGraphEdges(fns []*function) []Edge {
	type summary struct {
		fn *function
		// acquires maps global lock key -> representative position.
		acquires map[string]*site
		callees  map[string]bool
	}
	sums := map[string]*summary{}
	for _, fn := range fns {
		if fn.parent != nil {
			continue
		}
		key := fn.pkg.dir + ":" + fn.name
		s := &summary{fn: fn, acquires: map[string]*site{}, callees: map[string]bool{}}
		for gk, st := range fn.directAcquires {
			s.acquires[gk] = st
		}
		for _, c := range fn.callsHolding {
			s.callees[c.callee] = true
		}
		// Calls made while holding nothing still propagate acquires
		// upward; collect them from the CFG ops.
		for _, n := range fn.cfg.nodes {
			for i := range n.ops {
				if o := &n.ops[i]; o.kind == opCall && o.callee != "" {
					s.callees[o.callee] = true
				}
			}
		}
		sums[key] = s
	}

	// Transitive-acquire fixpoint over the call graph.
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			for callee := range s.callees {
				cs, ok := sums[callee]
				if !ok {
					continue
				}
				for gk, st := range cs.acquires {
					if _, have := s.acquires[gk]; !have {
						s.acquires[gk] = st
						changed = true
					}
				}
			}
		}
	}

	var edges []Edge
	for _, fn := range fns {
		for _, call := range fn.callsHolding {
			cs, ok := sums[call.callee]
			if !ok {
				continue
			}
			calleeName := call.callee[strings.LastIndex(call.callee, ":")+1:]
			for gk, acq := range cs.acquires {
				for _, held := range call.held {
					if held.try {
						continue // TryLock never blocks: no deadlock edge
					}
					hk := fn.globalKey(held.key, held.recv, held.dyn)
					edges = append(edges, Edge{
						From: hk, To: gk, Func: fn.name,
						FromPos: posString(held.pos),
						ToPos:   posString(acq.pos),
						Via:     calleeName,
					})
				}
			}
		}
	}
	return edges
}

// dedupeEdges sorts and uniques edges by (From, To, ToPos, Via).
func dedupeEdges(edges []Edge) []Edge {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.ToPos != b.ToPos {
			return a.ToPos < b.ToPos
		}
		if a.FromPos != b.FromPos {
			return a.FromPos < b.FromPos
		}
		return a.Via < b.Via
	})
	out := edges[:0]
	var last Edge
	for i, e := range edges {
		if i > 0 && e.From == last.From && e.To == last.To && e.ToPos == last.ToPos && e.Via == last.Via {
			continue
		}
		out = append(out, e)
		last = e
	}
	return out
}

// lockOrderCycles finds strongly connected components of the
// lock-order graph and reports each cycle — a potential
// deadlock inversion — with both acquisition stacks of every edge.
func lockOrderCycles(edges []Edge) ([]Cycle, []Finding) {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
		adj[e.From] = append(adj[e.From], e.To)
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	var cycles []Cycle
	var findings []Finding
	for _, scc := range graph.SCC(order, adj) {
		selfLoop := false
		if len(scc) == 1 {
			for _, to := range adj[scc[0]] {
				if to == scc[0] {
					selfLoop = true
				}
			}
			if !selfLoop {
				continue
			}
		}
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		var cyc Cycle
		cyc.Locks = append(cyc.Locks, scc...)
		sort.Strings(cyc.Locks)
		for _, e := range edges {
			if in[e.From] && in[e.To] {
				cyc.Edges = append(cyc.Edges, e)
			}
		}
		if len(cyc.Edges) == 0 {
			continue
		}
		cycles = append(cycles, cyc)

		var parts []string
		for _, e := range cyc.Edges {
			p := fmt.Sprintf("%s then %s in %s at %s (%s held since %s)",
				displayLock(e.From), displayLock(e.To), e.Func, e.ToPos, displayLock(e.From), e.FromPos)
			if e.Via != "" {
				p += fmt.Sprintf(" via call to %s", e.Via)
			}
			parts = append(parts, p)
		}
		first := cyc.Edges[0]
		for _, e := range cyc.Edges[1:] {
			if e.ToPos < first.ToPos {
				first = e
			}
		}
		var disp []string
		for _, l := range cyc.Locks {
			disp = append(disp, displayLock(l))
		}
		f := Finding{
			Check: CheckLockOrder, Severity: SevError,
			Lock:    displayLock(first.To),
			Message: fmt.Sprintf("potential deadlock: lock-order cycle %s; %s", strings.Join(disp, " ↔ "), strings.Join(parts, "; ")),
		}
		if dyn := dynOnly(first.To); dyn != "" {
			f.DynName = dyn
		}
		for _, l := range cyc.Locks {
			if dyn := dynOnly(l); dyn != "" {
				f.CycleDyn = append(f.CycleDyn, dyn)
			}
		}
		f.File, f.Line, f.Col = splitPos(first.ToPos)
		findings = append(findings, f)
	}
	sort.Slice(cycles, func(i, j int) bool {
		return strings.Join(cycles[i].Locks, ",") < strings.Join(cycles[j].Locks, ",")
	})
	return cycles, findings
}

// displayLock strips the package/function qualifiers off a global
// lock key for messages.
func displayLock(gk string) string {
	if i := strings.LastIndex(gk, ":"); i >= 0 {
		return gk[i+1:]
	}
	return gk
}

// dynOnly returns gk when it is a bare dynamic lock name (global keys
// for static-only locks carry ":" qualifiers).
func dynOnly(gk string) string {
	if strings.Contains(gk, ":") {
		return ""
	}
	return gk
}

// splitPos parses "file:line:col" back apart (positions always render
// through posString).
func splitPos(p string) (string, int, int) {
	i := strings.LastIndex(p, ":")
	if i < 0 {
		return p, 0, 0
	}
	j := strings.LastIndex(p[:i], ":")
	if j < 0 {
		return p, 0, 0
	}
	var line, col int
	fmt.Sscanf(p[j+1:], "%d:%d", &line, &col)
	return p[:j], line, col
}
