package graph

import "testing"

func TestValueOrderingAndString(t *testing.T) {
	tests := []struct {
		a, b Value
		less bool
	}{
		{N(1), N(2), true},
		{N(2), N(1), false},
		{S("a"), S("b"), true},
		{S("b"), S("a"), false},
		{B(false), B(true), true},
		{S("z"), N(0), false}, // kind order: string < number is false (string kind 0 < number kind 1 → true)
	}
	// fix the last expectation from the declared kind order
	tests[5].less = KindString < KindNumber
	for _, tc := range tests {
		if got := tc.a.Less(tc.b); got != tc.less {
			t.Errorf("Less(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.less)
		}
	}
	if S("x").String() != "x" || N(2.5).String() != "2.5" || B(true).String() != "true" {
		t.Errorf("String renderings wrong: %q %q %q", S("x"), N(2.5), B(true))
	}
}

func TestValueEqual(t *testing.T) {
	if !S("a").Equal(S("a")) || S("a").Equal(S("b")) {
		t.Fatal("string equality broken")
	}
	if !N(1).Equal(N(1)) || N(1).Equal(N(2)) {
		t.Fatal("numeric equality broken")
	}
	if S("1").Equal(N(1)) {
		t.Fatal("cross-kind values must differ")
	}
}

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3, 3)
	a := g.AddVertex(Attrs{"type": S("person"), "age": N(30)})
	b := g.AddVertex(Attrs{"type": S("person"), "age": N(25)})
	c := g.AddVertex(Attrs{"type": S("city")})
	g.AddEdge(a, b, "knows", Attrs{"since": N(2010)})
	g.AddEdge(b, c, "livesIn", nil)
	g.AddEdge(a, c, "livesIn", nil)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildTriangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if got := g.Edge(0).Type; got != "knows" {
		t.Errorf("edge 0 type = %q", got)
	}
	if len(g.Out(0)) != 2 || len(g.In(2)) != 2 || g.Degree(1) != 2 {
		t.Errorf("adjacency wrong: out(0)=%d in(2)=%d deg(1)=%d", len(g.Out(0)), len(g.In(2)), g.Degree(1))
	}
	if len(g.EdgesByType("livesIn")) != 2 {
		t.Errorf("type index wrong")
	}
	types := g.EdgeTypes()
	if len(types) != 2 || types[0] != "knows" || types[1] != "livesIn" {
		t.Errorf("EdgeTypes = %v", types)
	}
}

func TestAddEdgePanicsOnBadEndpoint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range endpoint")
		}
	}()
	g := New(0, 0)
	g.AddEdge(0, 1, "x", nil)
}

func TestVertexIndex(t *testing.T) {
	g := buildTriangle(t)
	if _, ok := g.VerticesByAttr("type", S("person")); ok {
		t.Fatal("index should not exist before BuildVertexIndex")
	}
	g.BuildVertexIndex("type")
	ids, ok := g.VerticesByAttr("type", S("person"))
	if !ok || len(ids) != 2 {
		t.Fatalf("persons = %v ok=%v", ids, ok)
	}
	if ids, ok := g.VerticesByAttr("type", S("robot")); !ok || len(ids) != 0 {
		t.Fatalf("robots = %v ok=%v", ids, ok)
	}
	if keys := g.IndexedKeys(); len(keys) != 1 || keys[0] != "type" {
		t.Fatalf("IndexedKeys = %v", keys)
	}
}

func TestSummary(t *testing.T) {
	g := buildTriangle(t)
	s := g.Summary()
	if s.Vertices != 3 || s.Edges != 3 || s.EdgeTypes["livesIn"] != 2 || s.EdgeTypes["knows"] != 1 {
		t.Fatalf("Summary = %+v", s)
	}
}
