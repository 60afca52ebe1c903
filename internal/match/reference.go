package match

import (
	"repro/internal/graph"
	"repro/internal/query"
)

// This file retains the original map-based backtracking engine as a
// reference implementation. The differential tests execute randomized
// workloads against both engines and assert identical counts and sorted
// result sets, proving the compiled flat-state engine (plan.go/exec.go)
// preserves the seed semantics. It shares nothing with the engine it checks:
// predicates are tested against the elements' attribute maps and candidates
// are its own scan — no column, index or cache of the compiled engine is read.

// vertexMatches reports whether data vertex vd satisfies every predicate
// interval of query vertex vq.
func (m *Matcher) vertexMatches(vq *query.Vertex, vd graph.VertexID) bool {
	attrs := m.g.Vertex(vd).Attrs
	for key, pred := range vq.Preds {
		val, ok := attrs[key]
		if !ok || !pred.Matches(val) {
			return false
		}
	}
	return true
}

// edgeMatches reports whether data edge ed satisfies the type disjunction and
// every predicate interval of query edge eq (direction is checked by the
// expansion step, not here).
func (m *Matcher) edgeMatches(eq *query.Edge, ed graph.EdgeID) bool {
	e := m.g.Edge(ed)
	if !eq.HasType(e.Type) {
		return false
	}
	for key, pred := range eq.Preds {
		val, ok := e.Attrs[key]
		if !ok || !pred.Matches(val) {
			return false
		}
	}
	return true
}

// refCandidates scans for the live data vertices matching vq, in id order.
func (m *Matcher) refCandidates(vq *query.Vertex) []graph.VertexID {
	var list []graph.VertexID
	for i := 0; i < m.g.NumVertices(); i++ {
		if id := graph.VertexID(i); !m.g.VertexRemoved(id) && m.vertexMatches(vq, id) {
			list = append(list, id)
		}
	}
	return list
}

// ReferenceFind enumerates result graphs with the retained map-based engine.
func (m *Matcher) ReferenceFind(q *query.Query, opts Options) []Result {
	var out []Result
	m.refRun(q, func(r Result) bool {
		out = append(out, r.clone())
		return opts.Limit == 0 || len(out) < opts.Limit
	})
	return out
}

// ReferenceCount counts result graphs with the retained map-based engine.
func (m *Matcher) ReferenceCount(q *query.Query, cap int) int {
	n := 0
	m.refRun(q, func(Result) bool {
		n++
		return cap == 0 || n < cap
	})
	return n
}

// refRun drives the backtracking search, invoking emit for every embedding.
// emit returns false to stop the enumeration.
func (m *Matcher) refRun(q *query.Query, emit func(Result) bool) {
	if q.NumVertices() == 0 {
		return
	}
	comps := q.WeaklyConnectedComponents()
	if len(comps) == 1 {
		m.refRunConnected(q, emit)
		return
	}
	// Match each weakly connected component independently (§4.3.3), then
	// combine component embeddings, keeping vertex injectivity globally.
	perComp := make([][]Result, len(comps))
	for i, compVertices := range comps {
		sub := q.SubqueryByVertices(compVertices)
		var rs []Result
		m.refRunConnected(sub, func(r Result) bool {
			rs = append(rs, r.clone())
			return true
		})
		if len(rs) == 0 {
			return // one empty component empties the product
		}
		perComp[i] = rs
	}
	// Combine the component result sets.
	combined := Result{VertexMap: map[int]graph.VertexID{}, EdgeMap: map[int]graph.EdgeID{}}
	used := make(map[graph.VertexID]int)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(perComp) {
			return emit(combined)
		}
		for _, r := range perComp[i] {
			ok := true
			for _, dv := range r.VertexMap {
				if used[dv] > 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for qv, dv := range r.VertexMap {
				combined.VertexMap[qv] = dv
				used[dv]++
			}
			for qe, de := range r.EdgeMap {
				combined.EdgeMap[qe] = de
			}
			cont := rec(i + 1)
			for qv, dv := range r.VertexMap {
				delete(combined.VertexMap, qv)
				used[dv]--
			}
			for qe := range r.EdgeMap {
				delete(combined.EdgeMap, qe)
			}
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// refStep is one unit of the connected search plan: match query edge edge,
// expanding from the already-bound endpoint to newVertex (or just checking
// the edge if both endpoints are bound — a "closing" step).
type refStep struct {
	edge      *query.Edge
	newVertex int  // query vertex newly bound by this step; -1 for closing
	fromIsSrc bool // the already-bound endpoint is the edge's source
}

// refPlan orders the edges of a connected query into a traversal starting at
// the most selective vertex, whose candidates it returns. Isolated vertices
// are returned separately.
func (m *Matcher) refPlan(q *query.Query) (start int, startCands []graph.VertexID, steps []refStep, isolated []int) {
	// Start vertex: fewest candidates (cheap selectivity heuristic).
	best := -1
	for _, vid := range q.VertexIDs() {
		if q.Degree(vid) == 0 {
			isolated = append(isolated, vid)
			continue
		}
		c := m.refCandidates(q.Vertex(vid))
		if best == -1 || len(c) < len(startCands) {
			best, startCands = vid, c
		}
	}
	if best == -1 {
		return -1, nil, nil, isolated
	}
	bound := map[int]bool{best: true}
	usedEdges := map[int]bool{}
	for len(usedEdges) < q.NumEdges() {
		// Prefer closing edges (both endpoints bound), then any frontier edge.
		chosen := -1
		closing := false
		for _, eid := range q.EdgeIDs() {
			if usedEdges[eid] {
				continue
			}
			e := q.Edge(eid)
			fb, tb := bound[e.From], bound[e.To]
			if fb && tb {
				chosen, closing = eid, true
				break
			}
			if (fb || tb) && chosen == -1 {
				chosen = eid
			}
		}
		if chosen == -1 {
			break // disconnected remainder; callers pass connected queries
		}
		e := q.Edge(chosen)
		usedEdges[chosen] = true
		if closing {
			steps = append(steps, refStep{edge: e, newVertex: -1, fromIsSrc: true})
			continue
		}
		if bound[e.From] {
			steps = append(steps, refStep{edge: e, newVertex: e.To, fromIsSrc: true})
			bound[e.To] = true
		} else {
			steps = append(steps, refStep{edge: e, newVertex: e.From, fromIsSrc: false})
			bound[e.From] = true
		}
	}
	return best, startCands, steps, isolated
}

// refRunConnected enumerates embeddings of a query whose edge-bearing part
// is connected; isolated query vertices are bound afterwards from their
// candidate lists.
func (m *Matcher) refRunConnected(q *query.Query, emit func(Result) bool) {
	start, startCands, steps, isolated := m.refPlan(q)
	isoCands := make([][]graph.VertexID, len(isolated))
	for i, vid := range isolated {
		isoCands[i] = m.refCandidates(q.Vertex(vid))
	}
	res := Result{VertexMap: map[int]graph.VertexID{}, EdgeMap: map[int]graph.EdgeID{}}
	usedV := map[graph.VertexID]bool{}
	usedE := map[graph.EdgeID]bool{}

	var bindIsolated func(i int) bool
	bindIsolated = func(i int) bool {
		if i == len(isolated) {
			return emit(res)
		}
		vq := q.Vertex(isolated[i])
		for _, cand := range isoCands[i] {
			if usedV[cand] {
				continue
			}
			res.VertexMap[vq.ID] = cand
			usedV[cand] = true
			cont := bindIsolated(i + 1)
			delete(res.VertexMap, vq.ID)
			usedV[cand] = false
			if !cont {
				return false
			}
		}
		return true
	}

	var expand func(si int) bool
	expand = func(si int) bool {
		if si == len(steps) {
			return bindIsolated(0)
		}
		st := steps[si]
		e := st.edge
		if st.newVertex == -1 {
			// Closing step: both endpoints bound; find an unused data edge.
			df, dt := res.VertexMap[e.From], res.VertexMap[e.To]
			return m.refEachDataEdge(e, df, dt, func(de graph.EdgeID) bool {
				if usedE[de] {
					return true
				}
				res.EdgeMap[e.ID] = de
				usedE[de] = true
				cont := expand(si + 1)
				delete(res.EdgeMap, e.ID)
				usedE[de] = false
				return cont
			})
		}
		// Expansion step: one endpoint bound, the other free.
		var boundQ, freeQ int
		if st.fromIsSrc {
			boundQ, freeQ = e.From, e.To
		} else {
			boundQ, freeQ = e.To, e.From
		}
		db := res.VertexMap[boundQ]
		freeVertex := q.Vertex(freeQ)
		return m.refEachAdjacent(e, db, st.fromIsSrc, func(de graph.EdgeID, dv graph.VertexID) bool {
			if usedE[de] || usedV[dv] || !m.vertexMatches(freeVertex, dv) {
				return true
			}
			res.VertexMap[freeQ] = dv
			res.EdgeMap[e.ID] = de
			usedV[dv] = true
			usedE[de] = true
			cont := expand(si + 1)
			delete(res.VertexMap, freeQ)
			delete(res.EdgeMap, e.ID)
			usedV[dv] = false
			usedE[de] = false
			return cont
		})
	}

	if start == -1 {
		// No edges at all: just bind the isolated vertices.
		bindIsolated(0)
		return
	}
	for _, cand := range startCands {
		res.VertexMap[start] = cand
		usedV[cand] = true
		cont := expand(0)
		delete(res.VertexMap, start)
		usedV[cand] = false
		if !cont {
			return
		}
	}
}

// refEachDataEdge yields data edges between two bound endpoints that satisfy
// the query edge's direction set, type disjunction, and predicates. A
// self-loop (df == dt) with both directions admitted is scanned only once —
// forward and backward cover the same data edges, and scanning both would
// double-count every embedding.
func (m *Matcher) refEachDataEdge(e *query.Edge, df, dt graph.VertexID, yield func(graph.EdgeID) bool) bool {
	if e.Dirs.Has(query.Forward) {
		for _, de := range m.g.Out(df) {
			if m.g.Edge(de).To == dt && m.edgeMatches(e, de) {
				if !yield(de) {
					return false
				}
			}
		}
	}
	if e.Dirs.Has(query.Backward) && !(df == dt && e.Dirs.Has(query.Forward)) {
		for _, de := range m.g.Out(dt) {
			if m.g.Edge(de).To == df && m.edgeMatches(e, de) {
				if !yield(de) {
					return false
				}
			}
		}
	}
	return true
}

// refEachAdjacent yields (data edge, far vertex) pairs adjacent to the bound
// vertex db that satisfy the query edge's constraints. fromIsSrc tells
// whether db plays the edge's source role.
func (m *Matcher) refEachAdjacent(e *query.Edge, db graph.VertexID, fromIsSrc bool, yield func(graph.EdgeID, graph.VertexID) bool) bool {
	// Forward direction: data edge runs source → target.
	if e.Dirs.Has(query.Forward) {
		if fromIsSrc {
			for _, de := range m.g.Out(db) {
				if m.edgeMatches(e, de) && !yield(de, m.g.Edge(de).To) {
					return false
				}
			}
		} else {
			for _, de := range m.g.In(db) {
				if m.edgeMatches(e, de) && !yield(de, m.g.Edge(de).From) {
					return false
				}
			}
		}
	}
	// Backward direction: data edge runs target → source.
	if e.Dirs.Has(query.Backward) {
		if fromIsSrc {
			for _, de := range m.g.In(db) {
				if m.edgeMatches(e, de) && !yield(de, m.g.Edge(de).From) {
					return false
				}
			}
		} else {
			for _, de := range m.g.Out(db) {
				if m.edgeMatches(e, de) && !yield(de, m.g.Edge(de).To) {
					return false
				}
			}
		}
	}
	return true
}
