package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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

func TestNeighborsDedup(t *testing.T) {
	g := New(2, 2)
	a := g.AddVertex(nil)
	b := g.AddVertex(nil)
	g.AddEdge(a, b, "x", nil)
	g.AddEdge(b, a, "y", nil) // second edge, opposite direction
	nb := g.Neighbors(a)
	if len(nb) != 1 || nb[0] != b {
		t.Fatalf("Neighbors = %v", nb)
	}
}

func TestWCC(t *testing.T) {
	g := New(6, 3)
	for i := 0; i < 6; i++ {
		g.AddVertex(nil)
	}
	g.AddEdge(0, 1, "t", nil)
	g.AddEdge(2, 1, "t", nil) // 0-1-2 weakly connected
	g.AddEdge(3, 4, "t", nil) // 3-4
	// 5 isolated
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 3 {
		t.Fatalf("component sizes = %v", sizes)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := buildTriangle(t)
	var visited int
	g.BFS(0, func(VertexID) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Fatalf("visited %d, want early stop at 2", visited)
	}
}

func TestEdgesBetween(t *testing.T) {
	g := New(3, 3)
	a := g.AddVertex(nil)
	b := g.AddVertex(nil)
	g.AddVertex(nil)
	e1 := g.AddEdge(a, b, "x", nil)
	e2 := g.AddEdge(b, a, "y", nil)
	got := g.EdgesBetween(a, b)
	if len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("EdgesBetween = %v", got)
	}
}

func TestSummary(t *testing.T) {
	g := buildTriangle(t)
	s := g.Summary()
	if s.Vertices != 3 || s.Edges != 3 || s.EdgeTypes["livesIn"] != 2 || s.EdgeTypes["knows"] != 1 {
		t.Fatalf("Summary = %+v", s)
	}
}

// Property: WCC partitions the vertex set — every vertex appears in exactly
// one component, and every edge's endpoints share a component.
func TestWCCPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(60)
		g := New(n, m)
		for i := 0; i < n; i++ {
			g.AddVertex(nil)
		}
		for i := 0; i < m; i++ {
			g.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), "t", nil)
		}
		comps := g.WeaklyConnectedComponents()
		owner := make(map[VertexID]int)
		total := 0
		for ci, c := range comps {
			for _, v := range c {
				if _, dup := owner[v]; dup {
					return false
				}
				owner[v] = ci
				total++
			}
		}
		if total != n {
			return false
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(EdgeID(i))
			if owner[e.From] != owner[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
