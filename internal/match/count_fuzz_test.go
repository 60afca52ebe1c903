package match

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// fuzzGraph reads a graph of at most 12 vertices and 24 edges: edge types x
// and y, self-loops and parallel edges wherever the bytes put them, an int
// vertex attribute k and an int edge attribute w that some elements lack,
// and sometimes an index on k.
func fuzzGraph(b *fuzzBytes) *graph.Graph {
	nv := 1 + b.next(12)
	g := graph.New(nv, 24)
	for i := 0; i < nv; i++ {
		attrs := graph.Attrs{}
		if k := b.next(5); k < 4 {
			attrs["k"] = graph.N(float64(k))
		}
		g.AddVertex(attrs)
	}
	for i, ne := 0, b.next(25); i < ne; i++ {
		from, to := graph.VertexID(b.next(nv)), graph.VertexID(b.next(nv))
		typ := [2]string{"x", "y"}[b.next(2)]
		attrs := graph.Attrs{}
		if w := b.next(4); w < 3 {
			attrs["w"] = graph.N(float64(w))
		}
		g.AddEdge(from, to, typ, attrs)
	}
	if b.next(2) == 1 {
		g.BuildVertexIndex("k")
	}
	return g
}

// fuzzPred reads no predicate, an equality, a two-value disjunction or a
// range over the values 0–3 (and 4, which nothing carries).
func fuzzPred(b *fuzzBytes) (query.Predicate, bool) {
	switch b.next(4) {
	case 1:
		return query.EqN(float64(b.next(5))), true
	case 2:
		return query.In(graph.N(float64(b.next(5))), graph.N(float64(b.next(5)))), true
	case 3:
		lo := b.next(5)
		return query.Between(float64(lo), float64(lo+b.next(3))), true
	}
	return query.Predicate{}, false
}

// fuzzQuery reads a query of 1–4 vertices and at most 4 edges between any
// two of them (query self-loops included), with a direction set, a type
// disjunction (none, x, y, both, x with a type absent from the data, or x
// listed twice) and at most one predicate per element.
func fuzzQuery(b *fuzzBytes) *query.Query {
	q := query.New()
	nv := 1 + b.next(4)
	for i := 0; i < nv; i++ {
		preds := map[string]query.Predicate{}
		if p, ok := fuzzPred(b); ok {
			preds["k"] = p
		}
		q.AddVertex(preds)
	}
	for i, ne := 0, b.next(5); i < ne; i++ {
		from, to := b.next(nv), b.next(nv)
		types := [][]string{nil, {"x"}, {"y"}, {"x", "y"}, {"x", "absent"}, {"x", "x"}}[b.next(6)]
		preds := map[string]query.Predicate{}
		if p, ok := fuzzPred(b); ok {
			preds["w"] = p
		}
		e := q.AddEdge(from, to, types, preds)
		q.Edge(e).Dirs = []query.Dir{query.Forward, query.Backward, query.Both}[b.next(3)]
	}
	return q
}

// FuzzCount: a small graph and query read from the fuzzer's bytes are
// counted by the compiled engine at caps 0, 1, 2, 3 and 7 and enumerated by
// FindRows, and each answer is the reference engine's: min(C, cap) and C
// rows. Every query edge's EdgeCandidateCount is the reference's edge count.
func FuzzCount(f *testing.F) {
	// Two vertices, a self-loop and a parallel pair; an untyped two-vertex
	// query in both directions.
	f.Add([]byte{1, 0, 1, 3, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 0, 1, 0, 1, 0, 0, 2})
	// A path of three x edges, indexed; a two-edge chain query.
	f.Add([]byte{3, 0, 1, 2, 3, 3, 0, 1, 0, 0, 1, 2, 0, 1, 2, 3, 0, 2, 1, 2, 0, 0, 0, 2, 0, 1, 1, 0, 0, 1, 2, 1, 0, 0})
	// Six vertices, both types, self-loops and a parallel pair; a
	// two-component query with vertex and edge predicates and an absent type.
	f.Add([]byte{5, 0, 1, 2, 3, 0, 1, 10, 0, 1, 0, 0, 1, 2, 1, 1, 2, 3, 0, 2, 3, 4, 1, 3, 4, 5, 0, 0, 5, 0, 1, 1, 0, 0, 0, 2,
		1, 2, 1, 0, 2, 0, 0, 1, 3, 3, 1, 2, 0, 3, 3, 0, 2, 0, 1, 0, 0, 2, 0, 1, 0, 0, 2, 2, 3, 4, 3, 0, 1, 0})
	// Two parallel x edges; one query edge listing x twice.
	f.Add([]byte{1, 4, 4, 2, 0, 1, 0, 3, 0, 1, 0, 3, 0, 1, 0, 0, 1, 0, 1, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		g := fuzzGraph(&b)
		q := fuzzQuery(&b)
		m := New(g)
		want := m.ReferenceCount(q, 0)
		for _, cap := range []int{0, 1, 2, 3, 7} {
			exp := want
			if cap > 0 {
				exp = min(want, cap)
			}
			if got := m.Count(q, cap); got != exp {
				t.Fatalf("count at cap %d = %d, reference %d", cap, got, exp)
			}
		}
		var rows Rows
		m.FindRows(m.NewContext(), q, Options{}, &rows)
		if rows.Len() != want {
			t.Fatalf("FindRows gave %d rows, reference %d embeddings", rows.Len(), want)
		}
		for _, e := range q.Edges() {
			if got, ref := m.EdgeCandidateCount(e), m.refEdgeCount(e); got != ref {
				t.Fatalf("edge %d (types %v): %d edge candidates, reference %d", e.ID, e.Types, got, ref)
			}
		}
	})
}
