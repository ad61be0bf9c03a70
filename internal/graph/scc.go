// Package graph holds the graph algorithms the lock-order analyses
// share.
package graph

// SCC returns the strongly connected components of the directed graph
// adj (Tarjan's algorithm, iterative, so deep graphs cannot overflow the
// stack). Roots are tried in the given order, and the successors of a
// node in the order adj lists them; a node reachable only through
// edges need not be in order. Components come out in completion order
// (reverse topological), singletons included, each listing its members
// in the order they leave Tarjan's stack. The result is a pure function
// of order and adj, so callers that filter and sort it stay
// deterministic.
func SCC[K comparable](order []K, adj map[K][]K) [][]K {
	index := map[K]int{}
	low := map[K]int{}
	onStack := map[K]bool{}
	var stack []K
	var comps [][]K
	type frame struct {
		node K
		ei   int
	}
	var frames []frame
	visit := func(n K) {
		index[n], low[n] = len(index), len(index)
		stack = append(stack, n)
		onStack[n] = true
		frames = append(frames, frame{node: n})
	}
	for _, root := range order {
		if _, seen := index[root]; seen {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.node]) {
				child := adj[f.node][f.ei]
				f.ei++
				if _, seen := index[child]; !seen {
					visit(child)
				} else if onStack[child] && index[child] < low[f.node] {
					low[f.node] = index[child]
				}
				continue
			}
			// Done with this node: pop a component if it is a root.
			node := f.node
			if low[node] == index[node] {
				var comp []K
				for {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[n] = false
					comp = append(comp, n)
					if n == node {
						break
					}
				}
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				low[parent.node] = min(low[parent.node], low[node])
			}
		}
	}
	return comps
}
