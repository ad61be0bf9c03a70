package hazard

import (
	"sort"

	"critlock/internal/graph"
	"critlock/internal/trace"
)

// cycles finds the strongly connected components of the dynamic
// lock-order graph and packages each with its realizing edges.
func (m *machine) cycles(keys []edgeKey, edgeOf map[edgeKey]Edge) []Cycle {
	adj := make(map[trace.ObjID][]trace.ObjID)
	var nodes []trace.ObjID
	for _, k := range keys {
		if k.from != k.to {
			if adj[k.from] == nil {
				nodes = append(nodes, k.from)
			}
			adj[k.from] = append(adj[k.from], k.to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		an, bn := m.objName(nodes[i]), m.objName(nodes[j])
		if an != bn {
			return an < bn
		}
		return nodes[i] < nodes[j]
	})

	var out []Cycle
	for _, comp := range graph.SCC(nodes, adj) {
		if len(comp) < 2 {
			continue
		}
		member := make(map[trace.ObjID]bool, len(comp))
		for _, id := range comp {
			member[id] = true
		}
		c := Cycle{}
		for _, id := range comp {
			c.Locks = append(c.Locks, m.objName(id))
		}
		sort.Strings(c.Locks)
		// keys is already in deterministic (from, to) name order.
		for _, k := range keys {
			if member[k.from] && member[k.to] && k.from != k.to {
				e := edgeOf[k]
				c.Edges = append(c.Edges, e)
				if e.CrossCount > 0 {
					c.CrossThread = true
				}
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Locks, out[j].Locks
		for x := 0; x < len(a) && x < len(b); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return len(a) < len(b)
	})
	return out
}
