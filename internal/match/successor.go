package match

import (
	"repro/internal/graph"
	"repro/internal/query"
)

// NewSuccessor returns a matcher over g — a fork of prev's graph, sealed,
// with d what its batch changed — that starts with the cache entries of prev
// the batch provably cannot have changed:
//
//   - a candidate set survives unless a vertex the batch added or removed
//     satisfies the set's predicates (existing vertices keep their
//     attributes, so nothing else enters or leaves it) and is shared as it
//     is: its bitset spans its own members, which the batch did not move;
//   - an executed count survives unless its key admits a touched edge type
//     or, with vertices touched, has a vertex no edge mentions
//     (query.CountMayChange has the argument).
//
// The copy is taken while prev keeps serving — searches pinned to it go on
// reading and writing prev only — and the new matcher's hit and miss
// counters start at zero.
func NewSuccessor(prev *Matcher, g *graph.Graph, d *graph.Delta) *Matcher {
	m := New(g)

	touched := append([]graph.Attrs(nil), d.RemovedAttrs...)
	for id := int(d.FirstVertex); id < g.NumVertices(); id++ {
		touched = append(touched, g.VertexAttrs(graph.VertexID(id)))
	}
	prev.candCache.Carry(m.candCache, func(_ string, e *candEntry) (*candEntry, bool) {
		for _, attrs := range touched {
			if matchFlat(attrs, e.preds) {
				return nil, false
			}
		}
		return e, true
	})
	prev.countCache.Carry(m.countCache, func(key string, n int) (int, bool) {
		return n, !query.CountMayChange(key, d.EdgeTypes, d.Vertices)
	})
	return m
}

// matchFlat reports whether an attribute map satisfies every flattened
// predicate: the handful of vertices a batch touched are tested decoded, the
// removed ones as Seal decoded them from the predecessor's columns.
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
