package match

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// TestRepeatedValueCountsOnce: a predicate interval is a set, so a value
// named twice admits its vertices once — on the indexed path, which
// concatenates one posting list per value, as in the independent reference.
func TestRepeatedValueCountsOnce(t *testing.T) {
	g := graph.New(3, 0)
	g.AddVertex(graph.Attrs{"type": graph.S("person")})
	g.AddVertex(graph.Attrs{"type": graph.S("person")})
	g.AddVertex(graph.Attrs{"type": graph.S("city")})
	g.BuildVertexIndex("type")
	m := New(g)
	build := func(vals ...graph.Value) *query.Query {
		q := query.New()
		q.AddVertex(map[string]query.Predicate{"type": query.In(vals...)})
		return q
	}
	person, city := graph.S("person"), graph.S("city")
	repeated, plain := build(person, city, person), build(person, city)
	if got := m.Count(repeated, 0); got != 3 {
		t.Fatalf("type ∈ {person, city, person} counts %d, want 3", got)
	}
	if got := m.ReferenceCount(repeated, 0); got != 3 {
		t.Fatalf("the reference counts %d, want 3", got)
	}
	if repeated.Key() != plain.Key() {
		t.Fatal("the repeated form has a key of its own")
	}
}

// TestReferenceReadsMapsOnly corrupts what the compiled engine resolves
// candidates from — the candidate cache — and requires the reference engine
// not to notice: an oracle that took its candidates from the code under test
// could not see a wrong column binding.
func TestReferenceReadsMapsOnly(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")}) // isolated
	want := m.ReferenceCount(q, 0)
	if want != 6 || m.Count(q, 0) != want {
		t.Fatalf("reference %d, compiled %d, want 6", want, m.Count(q, 0))
	}
	for _, v := range q.Vertices() {
		e := m.candidateEntry(v)
		e.list = e.list[:0]
		clear(e.bits)
	}
	if got := m.ReferenceCount(q, 0); got != want {
		t.Fatalf("the reference counts %d over an emptied candidate cache, %d before", got, want)
	}
}

// TestHighCardinalityColumns: every vertex and every edge carries a distinct
// numeric value, so each dictionary is as long as its column. Range and value
// predicates, on vertices and on edges, count what the map-based reference
// counts.
func TestHighCardinalityColumns(t *testing.T) {
	const n = 500
	g := graph.New(n, 2*n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Attrs{"x": graph.N(float64(i))})
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n), "next", graph.Attrs{"w": graph.N(float64(i) / 2)})
		g.AddEdge(graph.VertexID(i), graph.VertexID((i+7)%n), "skip", graph.Attrs{"w": graph.N(float64(n+i) / 2)})
	}
	m := New(g)
	if vals := g.VertexColumns()["x"].Vals; len(vals) != n+1 {
		t.Fatalf("vertex dictionary holds %d values, want %d", len(vals)-1, n)
	}
	if vals := g.EdgeColumns()["w"].Vals; len(vals) != 2*n+1 {
		t.Fatalf("edge dictionary holds %d values, want %d", len(vals)-1, 2*n)
	}
	for _, tc := range []struct {
		name         string
		vpred, epred query.Predicate
		types        []string
		want         int
	}{
		{"vertex range, edge range", query.Between(100, 199), query.Open(0, 1000), nil, 200},
		{"vertex values, edge range", query.In(graph.N(3), graph.N(4), graph.N(499), graph.N(1e6)), query.AtLeast(250), []string{"skip"}, 3},
		{"vertex range, edge values", query.AtMost(1e9), query.In(graph.N(0.5), graph.N(250), graph.N(-1)), nil, 2},
		{"open range between two values", query.Open(7, 8), query.AtLeast(0), nil, 0},
		{"half-open range", query.Predicate{Kind: query.Range, Lo: 7, Hi: 9, IncHi: true}, query.AtMost(4), []string{"next"}, 1},
	} {
		q := query.New()
		a := q.AddVertex(map[string]query.Predicate{"x": tc.vpred})
		b := q.AddVertex(nil)
		e := q.AddEdge(a, b, tc.types, map[string]query.Predicate{"w": tc.epred})
		got, ref := m.Count(q, 0), m.ReferenceCount(q, 0)
		if got != ref || got != tc.want {
			t.Errorf("%s: compiled %d, reference %d, want %d", tc.name, got, ref, tc.want)
		}
		if got, ref := m.EdgeCandidateCount(q.Edge(e)), m.refEdgeCount(q.Edge(e)); got != ref {
			t.Errorf("%s: %d edge candidates, the maps say %d", tc.name, got, ref)
		}
	}
}

// refEdgeCount is EdgeCandidateCount over the attribute maps.
func (m *Matcher) refEdgeCount(eq *query.Edge) int {
	n := 0
	for i := 0; i < m.g.NumEdges(); i++ {
		if id := graph.EdgeID(i); !m.g.EdgeRemoved(id) && m.edgeMatches(eq, id) {
			n++
		}
	}
	return n
}
