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
//   - an executed count or an edge count survives unless its key admits a
//     touched edge type or, with vertices touched, has a vertex no edge
//     mentions (query.CountMayChange has the argument).
//
// Compiled plans are not carried: they hold the dense type ids and the
// selectivity order of prev's graph, and recompiling over warm candidate
// lists is cheap. The copy is taken under prev's locks while prev keeps
// serving — searches pinned to it go on reading and writing prev only — and
// the new matcher's hit and miss counters start at zero.
func NewSuccessor(prev *Matcher, g *graph.Graph, d *graph.Delta) *Matcher {
	m := New(g)

	touched := append([]graph.Attrs(nil), d.RemovedAttrs...)
	for id := int(d.FirstVertex); id < g.NumVertices(); id++ {
		touched = append(touched, g.Vertex(graph.VertexID(id)).Attrs)
	}
	words := (g.NumVertices() + 63) / 64
	prev.candMu.RLock()
candidates:
	for key, e := range prev.candCache {
		for _, attrs := range touched {
			if matchFlat(attrs, e.preds) {
				continue candidates
			}
		}
		if len(e.bits) != words {
			bits := make([]uint64, words)
			copy(bits, e.bits)
			e = &candEntry{list: e.list, bits: bits, preds: e.preds}
		}
		m.candCache[key] = e
		m.candBytes += e.bytes(len(key))
	}
	prev.candMu.RUnlock()

	prev.edgeCountMu.RLock()
	for key, n := range prev.edgeCounts {
		if !query.EdgeCountMayChange(key, d.EdgeTypes) {
			m.edgeCounts[key] = n
		}
	}
	prev.edgeCountMu.RUnlock()

	for i := range prev.countCache {
		s := &prev.countCache[i]
		s.mu.RLock()
		kept := make(map[string]int, len(s.m))
		for key, n := range s.m {
			if !query.CountMayChange(key, d.EdgeTypes, d.Vertices) {
				kept[key] = n
			}
		}
		s.mu.RUnlock()
		m.countCache[i].m = kept // same hash, same shard
	}
	return m
}
