package match

import (
	"repro/internal/graph"
	"repro/internal/query"
)

// NewSuccessor returns a matcher over g — a fork of prev's graph, sealed,
// with d what its batch changed — that starts with the cache entries of prev
// the batch provably cannot have changed:
//
//   - a candidate list survives unless a vertex the batch added or removed
//     satisfies the list's predicates (existing vertices keep their
//     attributes, so nothing else enters or leaves it); its bitset is
//     re-allocated only when the vertex count crossed a multiple of 64;
//   - an executed count survives unless its key admits a touched edge type
//     or, with vertices touched, has a vertex no edge mentions
//     (query.CountMayChange has the argument).
//
// Compiled plans are not carried: they hold the dense type ids and the
// selectivity order of prev's graph, and recompiling over warm candidate
// lists is cheap. The copy is taken while prev keeps serving — searches
// pinned to it go on reading and writing prev only — and the new matcher's
// hit and miss counters start at zero.
func NewSuccessor(prev *Matcher, g *graph.Graph, d *graph.Delta) *Matcher {
	m := New(g)

	touched := append([]graph.Attrs(nil), d.RemovedAttrs...)
	for id := int(d.FirstVertex); id < g.NumVertices(); id++ {
		touched = append(touched, g.Vertex(graph.VertexID(id)).Attrs)
	}
	words := (g.NumVertices() + 63) / 64
	prev.candCache.Carry(m.candCache, func(_ string, e *candEntry) (*candEntry, bool) {
		for _, attrs := range touched {
			if matchFlat(attrs, e.preds) {
				return nil, false
			}
		}
		if len(e.bits) != words {
			bits := make([]uint64, words)
			copy(bits, e.bits)
			e = &candEntry{list: e.list, bits: bits, preds: e.preds}
		}
		return e, true
	})
	prev.countCache.Carry(m.countCache, func(key string, n int) (int, bool) {
		return n, !query.CountMayChange(key, d.EdgeTypes, d.Vertices)
	})
	return m
}

// matchFlat reports whether an attribute map satisfies every flattened
// predicate. The carry filter reads maps on purpose: the handful of vertices a
// batch touched includes removed ones, whose attributes no column holds.
func matchFlat(attrs graph.Attrs, preds []flatPred) bool {
	for i := range preds {
		fp := &preds[i]
		val, ok := attrs[fp.key]
		if !ok || !fp.pred.Matches(val) {
			return false
		}
	}
	return true
}
