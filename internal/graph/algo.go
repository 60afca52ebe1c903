package graph

// WeaklyConnectedComponents returns the weakly connected components of the
// graph as slices of vertex ids. Component order follows the smallest vertex
// id they contain; vertices inside a component are sorted ascending.
// The why-query machinery uses WCC both on data graphs (sanity checks for the
// generators) and — through the analogous routine in internal/query — on
// query graphs (§4.3.1, processing of weakly connected components).
func (g *Graph) WeaklyConnectedComponents() [][]VertexID {
	n := len(g.out)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]VertexID
	queue := make([]VertexID, 0, 64)
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		id := len(comps)
		comp[start] = id
		queue = append(queue[:0], VertexID(start))
		var members []VertexID
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			for _, e := range g.out[v] {
				w := g.edges[e].To
				if comp[w] == -1 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
			for _, e := range g.in[v] {
				w := g.edges[e].From
				if comp[w] == -1 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps
}

// BFS visits vertices reachable from start following edges in both
// directions, invoking visit for each vertex in breadth-first order. If visit
// returns false, the traversal stops early.
func (g *Graph) BFS(start VertexID, visit func(VertexID) bool) {
	seen := make(map[VertexID]struct{})
	seen[start] = struct{}{}
	queue := []VertexID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if !visit(v) {
			return
		}
		for _, e := range g.out[v] {
			w := g.edges[e].To
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				queue = append(queue, w)
			}
		}
		for _, e := range g.in[v] {
			w := g.edges[e].From
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				queue = append(queue, w)
			}
		}
	}
}

// EdgesBetween returns all edge ids connecting a and b in either direction.
func (g *Graph) EdgesBetween(a, b VertexID) []EdgeID {
	var res []EdgeID
	for _, e := range g.out[a] {
		if g.edges[e].To == b {
			res = append(res, e)
		}
	}
	for _, e := range g.out[b] {
		if g.edges[e].To == a {
			res = append(res, e)
		}
	}
	return res
}
