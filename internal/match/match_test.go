package match

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// testGraph builds a small social graph:
//
//	p0(Anna,28) --knows(2010)--> p1(Bert,33)
//	p0 --knows(2015)--> p2(Cara,28)
//	p1 --knows(2012)--> p2
//	p0 --worksAt(2003)--> u0(TU Dresden)
//	p1 --worksAt(2008)--> u0
//	p2 --studyAt--> u0
//	u0 --locatedIn--> c0(Dresden)
//	p3(Dave,41) --worksAt(2001)--> u1(Aalborg U)
//	u1 --locatedIn--> c1(Aalborg)
func testGraph() *graph.Graph {
	g := graph.New(8, 10)
	p0 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Anna"), "age": graph.N(28)})
	p1 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Bert"), "age": graph.N(33)})
	p2 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Cara"), "age": graph.N(28)})
	p3 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Dave"), "age": graph.N(41)})
	u0 := g.AddVertex(graph.Attrs{"type": graph.S("university"), "name": graph.S("TU Dresden")})
	u1 := g.AddVertex(graph.Attrs{"type": graph.S("university"), "name": graph.S("Aalborg U")})
	c0 := g.AddVertex(graph.Attrs{"type": graph.S("city"), "name": graph.S("Dresden")})
	c1 := g.AddVertex(graph.Attrs{"type": graph.S("city"), "name": graph.S("Aalborg")})
	g.AddEdge(p0, p1, "knows", graph.Attrs{"since": graph.N(2010)})
	g.AddEdge(p0, p2, "knows", graph.Attrs{"since": graph.N(2015)})
	g.AddEdge(p1, p2, "knows", graph.Attrs{"since": graph.N(2012)})
	g.AddEdge(p0, u0, "worksAt", graph.Attrs{"sinceYear": graph.N(2003)})
	g.AddEdge(p1, u0, "worksAt", graph.Attrs{"sinceYear": graph.N(2008)})
	g.AddEdge(p2, u0, "studyAt", nil)
	g.AddEdge(u0, c0, "locatedIn", nil)
	g.AddEdge(p3, u1, "worksAt", graph.Attrs{"sinceYear": graph.N(2001)})
	g.AddEdge(u1, c1, "locatedIn", nil)
	g.BuildVertexIndex("type")
	return g
}

func personType() map[string]query.Predicate {
	return map[string]query.Predicate{"type": query.EqS("person")}
}

func TestSingleVertexMatch(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(personType())
	if got := m.Count(q, 0); got != 4 {
		t.Fatalf("persons = %d, want 4", got)
	}
	q2 := query.New()
	q2.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "age": query.Between(28, 33)})
	if got := m.Count(q2, 0); got != 3 {
		t.Fatalf("persons 28..33 = %d, want 3", got)
	}
}

func TestEdgeMatch(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(personType())
	q.AddEdge(a, b, []string{"knows"}, nil)
	// Directed: 3 knows edges, each one embedding.
	if got := m.Count(q, 0); got != 3 {
		t.Fatalf("knows embeddings = %d, want 3", got)
	}
	// Undirected: each edge matches in both roles.
	q.Edge(0).Dirs = query.Both
	if got := m.Count(q, 0); got != 6 {
		t.Fatalf("undirected knows embeddings = %d, want 6", got)
	}
}

func TestEdgePredicate(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(personType())
	q.AddEdge(a, b, []string{"knows"}, map[string]query.Predicate{"since": query.AtLeast(2012)})
	if got := m.Count(q, 0); got != 2 {
		t.Fatalf("knows since>=2012 = %d, want 2", got)
	}
}

func TestTypeDisjunction(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q.AddEdge(a, b, []string{"worksAt", "studyAt"}, nil)
	if got := m.Count(q, 0); got != 4 {
		t.Fatalf("worksAt|studyAt = %d, want 4", got)
	}
	// Untyped edge (type deleted) admits any type.
	q.Edge(0).Types = nil
	if got := m.Count(q, 0); got != 4 {
		t.Fatalf("untyped = %d, want 4", got)
	}
}

func TestTriangleInjectivity(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(personType())
	c := q.AddVertex(personType())
	q.AddEdge(a, b, []string{"knows"}, nil)
	q.AddEdge(a, c, []string{"knows"}, nil)
	q.AddEdge(b, c, []string{"knows"}, nil)
	// Exactly one directed triangle: p0->p1, p0->p2, p1->p2.
	rs := m.Find(q, Options{})
	if len(rs) != 1 {
		t.Fatalf("triangles = %d, want 1", len(rs))
	}
	r := rs[0]
	if r.VertexMap[a] != 0 || r.VertexMap[b] != 1 || r.VertexMap[c] != 2 {
		t.Fatalf("triangle mapping = %v", r.VertexMap)
	}
	if len(r.EdgeMap) != 3 {
		t.Fatalf("triangle edge map = %v", r.EdgeMap)
	}
}

func TestThreeHopChain(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	q.AddEdge(b, c, []string{"locatedIn"}, nil)
	if got := m.Count(q, 0); got != 3 {
		t.Fatalf("person->uni->city = %d, want 3", got)
	}
	// Narrow the city.
	c0 := q.Vertex(c)
	c0.Preds["name"] = query.EqS("Dresden")
	if got := m.Count(q, 0); got != 2 {
		t.Fatalf("…->Dresden = %d, want 2", got)
	}
}

func TestBackwardDirection(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	// city <-locatedIn- university, but written with city as source and
	// Backward direction.
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q.AddEdge(c, u, []string{"locatedIn"}, nil)
	q.Edge(0).Dirs = query.Backward
	if got := m.Count(q, 0); got != 2 {
		t.Fatalf("backward locatedIn = %d, want 2", got)
	}
	// Forward direction from city to university matches nothing.
	q.Edge(0).Dirs = query.Forward
	if got := m.Count(q, 0); got != 0 {
		t.Fatalf("forward city->university = %d, want 0", got)
	}
}

func TestCountCap(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(personType())
	if got := m.Count(q, 2); got != 2 {
		t.Fatalf("capped count = %d, want 2", got)
	}
	if m.Count(q, 1) != 1 {
		t.Fatal("a count capped at 1 must find the one embedding")
	}
}

func TestFindLimit(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(personType())
	rs := m.Find(q, Options{Limit: 3})
	if len(rs) != 3 {
		t.Fatalf("limited find = %d, want 3", len(rs))
	}
}

func TestUnconnectedComponents(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	// Component 1: person -worksAt-> university. 3 embeddings.
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	// Component 2: an isolated city vertex. 2 candidates.
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	if got := m.Count(q, 0); got != 6 {
		t.Fatalf("product count = %d, want 6", got)
	}
}

func TestInjectivityAcrossComponents(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	// Two isolated person vertices: ordered pairs of distinct persons.
	q.AddVertex(personType())
	q.AddVertex(personType())
	if got := m.Count(q, 0); got != 12 {
		t.Fatalf("distinct person pairs = %d, want 4*3=12", got)
	}
}

func TestEmptyResult(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("dragon")})
	if m.Count(q, 1) != 0 {
		t.Fatal("no dragons expected")
	}
	if got := m.Count(q, 0); got != 0 {
		t.Fatalf("dragons = %d", got)
	}
}

func TestCandidatesUseIndex(t *testing.T) {
	m := New(testGraph())
	vq := &query.Vertex{ID: 0, Preds: map[string]query.Predicate{"type": query.EqS("city")}}
	if n := m.CandidateCount(vq); n != 2 {
		t.Fatalf("city candidates = %d, want 2", n)
	}
}

func TestEdgeCandidateCount(t *testing.T) {
	m := New(testGraph())
	eq := &query.Edge{ID: 0, Types: []string{"knows"}, Dirs: query.Forward, Preds: map[string]query.Predicate{}}
	if got := m.EdgeCandidateCount(eq); got != 3 {
		t.Fatalf("knows edges = %d, want 3", got)
	}
	eq.Preds["since"] = query.AtLeast(2012)
	if got := m.EdgeCandidateCount(eq); got != 2 {
		t.Fatalf("knows since 2012 = %d, want 2", got)
	}
	untyped := &query.Edge{ID: 1, Preds: map[string]query.Predicate{}}
	if got := m.EdgeCandidateCount(untyped); got != 9 {
		t.Fatalf("all edges = %d, want 9", got)
	}
}

func TestSortResultsDeterminism(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(personType())
	a := m.Find(q, Options{})
	b := m.Find(q, Options{})
	SortResults(a)
	SortResults(b)
	for i := range a {
		if a[i].VertexMap[0] != b[i].VertexMap[0] {
			t.Fatal("SortResults not deterministic")
		}
	}
	if a[0].VertexMap[0] != 0 {
		t.Fatalf("first sorted result should bind p0, got %v", a[0].VertexMap)
	}
}

func TestMissingAttributeFailsPredicate(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	// Cities have no "age" attribute: predicate on it matches nothing.
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("city"), "age": query.AtLeast(0)})
	if m.Count(q, 1) > 0 {
		t.Fatal("missing attribute must fail the predicate")
	}
}
