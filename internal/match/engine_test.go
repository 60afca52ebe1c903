package match

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// TestSelfLoopBothDirectionsNoDuplicate is the regression test for the
// duplicate-embedding bug: a self-loop data edge (df == dt) matched by a
// query edge with direction set Both used to be yielded once by the forward
// scan and once more by the backward scan, double-counting the embedding.
func TestSelfLoopBothDirectionsNoDuplicate(t *testing.T) {
	g := graph.New(2, 2)
	v0 := g.AddVertex(graph.Attrs{"type": graph.S("page")})
	v1 := g.AddVertex(graph.Attrs{"type": graph.S("page")})
	g.AddEdge(v0, v0, "links", nil) // self-loop
	g.AddEdge(v0, v1, "links", nil)
	m := New(g)

	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("page")})
	q.AddEdge(a, a, []string{"links"}, nil)

	for _, dirs := range []query.Dir{query.Forward, query.Backward, query.Both} {
		q.Edge(0).Dirs = dirs
		if got := m.Count(q, 0); got != 1 {
			t.Errorf("dirs %v: self-loop count = %d, want 1", dirs, got)
		}
		if got := m.ReferenceCount(q, 0); got != 1 {
			t.Errorf("dirs %v: reference self-loop count = %d, want 1", dirs, got)
		}
	}
}

// TestCountAllocsZero asserts the flat-state core performs no allocations
// when counting on a compiled plan with a warmed context.
func TestCountAllocsZero(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	q.AddEdge(b, c, []string{"locatedIn"}, nil)
	q.AddVertex(personType()) // second component: exercise the unified multi-component path

	// A single edge: the plan's last step is an expansion, counted by countOver.
	path1 := query.New()
	a = path1.AddVertex(personType())
	b = path1.AddVertex(personType())
	path1.AddEdge(a, b, []string{"knows"}, nil)

	ctx := m.NewContext()
	for name, q := range map[string]*query.Query{"two components": q, "single edge": path1} {
		p := m.Compile(q)
		if p.Count(ctx, 0) == 0 {
			t.Fatalf("%s: query must have results", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			p.Count(ctx, 0)
		})
		if allocs != 0 {
			t.Fatalf("%s: Count on a compiled plan allocated %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestCachedCountAllocsZero asserts the same of the cached entry points: a
// warm Count, CountCtx or CountKeyed is a key derivation and one cache hit.
func TestCachedCountAllocsZero(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	key := q.Key()
	ctx := m.NewContext()
	want := m.Count(q, 0)
	for name, count := range map[string]func() int{
		"Count":      func() int { return m.Count(q, 0) },
		"CountCtx":   func() int { return m.CountCtx(ctx, q, 0) },
		"CountKeyed": func() int { return CountKeyed(m, ctx, key, 0, func() *query.Query { return q }) },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if got := count(); got != want {
				t.Fatalf("%s = %d, want %d", name, got, want)
			}
		})
		if allocs != 0 && !(raceEnabled && name == "Count") {
			t.Errorf("warm %s allocated %.1f times per run, want 0", name, allocs)
		}
	}
	if _, misses, _ := m.CountCacheStats(); misses != 1 {
		t.Fatalf("count-cache misses = %d, want 1: the warm calls must all have hit", misses)
	}
}

// TestCompiledMatchesReference cross-checks the compiled engine against the
// retained map-based engine on a spread of query shapes over the test graph
// and over leafGraph: every count at caps 0, 1, 2, N−1, N and N+1 is
// min(N, cap), N the reference's exact count, and Find returns the
// reference's results. The leaf cases end in an expansion, the step a count
// adds up instead of enumerating.
func TestCompiledMatchesReference(t *testing.T) {
	m, lm := New(testGraph()), New(leafGraph())
	type tcase struct {
		m    *Matcher
		q    *query.Query
		leaf bool // the plan's last step is an expansion
	}
	queries := map[string]tcase{}

	add := func(name string, q *query.Query) { queries[name] = tcase{m: m, q: q} }
	addLeaf := func(name string, q *query.Query) { queries[name] = tcase{m: lm, q: q, leaf: true} }

	q1 := query.New()
	q1.AddVertex(personType())
	add("single-vertex", q1)

	q2 := query.New()
	a := q2.AddVertex(personType())
	b := q2.AddVertex(personType())
	q2.AddEdge(a, b, []string{"knows"}, nil)
	add("one-edge", q2)

	q3 := q2.Clone()
	q3.Edge(0).Dirs = query.Both
	add("one-edge-undirected", q3)

	q4 := query.New()
	a = q4.AddVertex(personType())
	b = q4.AddVertex(personType())
	c := q4.AddVertex(personType())
	q4.AddEdge(a, b, []string{"knows"}, nil)
	q4.AddEdge(a, c, []string{"knows"}, nil)
	q4.AddEdge(b, c, []string{"knows"}, nil)
	add("triangle", q4)

	q5 := query.New()
	a = q5.AddVertex(personType())
	b = q5.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q5.AddEdge(a, b, []string{"worksAt"}, nil)
	q5.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	add("two-components", q5)

	q6 := query.New()
	q6.AddVertex(personType())
	q6.AddVertex(personType())
	add("two-isolated", q6)

	q7 := query.New()
	a = q7.AddVertex(personType())
	b = q7.AddVertex(personType())
	q7.AddEdge(a, b, []string{"knows"}, map[string]query.Predicate{"since": query.AtLeast(2012)})
	q7.Edge(0).Dirs = query.Backward
	add("backward-pred", q7)

	q8 := query.New()
	a = q8.AddVertex(nil)
	b = q8.AddVertex(nil)
	q8.AddEdge(a, b, nil, nil)
	add("untyped-unconstrained", q8)

	kindA := map[string]query.Predicate{"kind": query.EqS("a")}
	kindB := map[string]query.Predicate{"kind": query.EqS("b")}

	// The second component's edge runs from an a to any vertex; the first
	// component has bound both b vertices, which are far candidates too.
	l1 := query.New()
	a = l1.AddVertex(kindB)
	b = l1.AddVertex(kindB)
	l1.AddEdge(a, b, []string{"y"}, nil)
	a = l1.AddVertex(kindA)
	b = l1.AddVertex(nil)
	l1.AddEdge(a, b, []string{"x"}, nil)
	addLeaf("leaf-second-component", l1)

	// Both directions from an a vertex, one of which carries a self-loop.
	l2 := query.New()
	a = l2.AddVertex(kindA)
	b = l2.AddVertex(nil)
	l2.AddEdge(a, b, []string{"x"}, nil)
	l2.Edge(0).Dirs = query.Both
	addLeaf("leaf-both-self-loop", l2)

	// A parallel pair of data edges a → b, filtered by an edge predicate.
	l3 := query.New()
	a = l3.AddVertex(kindA)
	b = l3.AddVertex(kindB)
	l3.AddEdge(a, b, []string{"x"}, map[string]query.Predicate{"w": query.AtLeast(2)})
	addLeaf("leaf-parallel-pred", l3)

	// A type disjunction naming a type no data edge carries.
	l4 := query.New()
	a = l4.AddVertex(kindA)
	b = l4.AddVertex(nil)
	l4.AddEdge(a, b, []string{"y", "absent"}, nil)
	addLeaf("leaf-absent-type", l4)

	// No type at all: every edge type is admitted.
	l5 := query.New()
	a = l5.AddVertex(kindB)
	b = l5.AddVertex(nil)
	l5.AddEdge(a, b, nil, nil)
	l5.Edge(0).Dirs = query.Both
	addLeaf("leaf-untyped", l5)

	for name, tc := range queries {
		m, q := tc.m, tc.q
		if p := m.Compile(q); tc.leaf && p.ops[len(p.ops)-1].kind != opExpand {
			t.Fatalf("%s: the plan ends in op kind %d, not an expansion", name, p.ops[len(p.ops)-1].kind)
		}
		want := m.ReferenceCount(q, 0)
		if tc.leaf && want < 2 {
			t.Fatalf("%s: %d embeddings: the case counts too little", name, want)
		}
		for _, cap := range []int{0, 1, 2, want - 1, want, want + 1} {
			if cap < 0 {
				continue
			}
			exp := want
			if cap > 0 {
				exp = min(want, cap)
			}
			if got := m.Count(q, cap); got != exp {
				t.Errorf("%s: compiled count at cap %d = %d, want min(%d, cap) = %d", name, cap, got, want, exp)
			}
		}
		gotRes := m.Find(q, Options{})
		wantRes := m.ReferenceFind(q, Options{})
		SortResults(gotRes)
		SortResults(wantRes)
		if err := sameResults(gotRes, wantRes); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// leafGraph has what a counted last step must not miscount: a self-loop
// (a1 → a1), a parallel pair (a0 → b0 twice, w 2 and 3), two edge types and
// x edges into the b vertices a first component binds.
func leafGraph() *graph.Graph {
	g := graph.New(5, 11)
	a0 := g.AddVertex(graph.Attrs{"kind": graph.S("a")})
	a1 := g.AddVertex(graph.Attrs{"kind": graph.S("a")})
	a2 := g.AddVertex(graph.Attrs{"kind": graph.S("a")})
	b0 := g.AddVertex(graph.Attrs{"kind": graph.S("b")})
	b1 := g.AddVertex(graph.Attrs{"kind": graph.S("b")})
	g.AddEdge(a0, a1, "x", graph.Attrs{"w": graph.N(1)})
	g.AddEdge(a0, b0, "x", graph.Attrs{"w": graph.N(2)})
	g.AddEdge(a0, b0, "x", graph.Attrs{"w": graph.N(3)})
	g.AddEdge(a1, a1, "x", graph.Attrs{"w": graph.N(1)})
	g.AddEdge(a1, b0, "y", nil)
	g.AddEdge(a0, b1, "y", nil)
	g.AddEdge(b0, b1, "y", nil)
	g.AddEdge(b1, a0, "x", nil)
	g.AddEdge(a1, b1, "x", graph.Attrs{"w": graph.N(2)})
	g.AddEdge(a2, a0, "x", nil)
	g.AddEdge(a2, b0, "x", nil)
	return g
}

// sameResults deep-compares two sorted result slices.
func sameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].VertexMap) != len(b[i].VertexMap) || len(a[i].EdgeMap) != len(b[i].EdgeMap) {
			return fmt.Errorf("result %d: map sizes differ", i)
		}
		for k, v := range a[i].VertexMap {
			if b[i].VertexMap[k] != v {
				return fmt.Errorf("result %d: vertex %d bound to %d vs %d", i, k, v, b[i].VertexMap[k])
			}
		}
		for k, v := range a[i].EdgeMap {
			if b[i].EdgeMap[k] != v {
				return fmt.Errorf("result %d: edge %d bound to %d vs %d", i, k, v, b[i].EdgeMap[k])
			}
		}
	}
	return nil
}

// TestPlanReusableAcrossContexts executes one compiled plan from two
// contexts and checks plan state is not corrupted by execution.
func TestPlanReusableAcrossContexts(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(personType())
	q.AddEdge(a, b, []string{"knows"}, nil)
	p := m.Compile(q)
	c1, c2 := m.NewContext(), m.NewContext()
	if n1, n2 := p.Count(c1, 0), p.Count(c2, 0); n1 != 3 || n2 != 3 {
		t.Fatalf("counts = %d, %d, want 3, 3", n1, n2)
	}
	var rows Rows
	if p.FindRows(c2, Options{}, &rows); rows.Len() != 3 {
		t.Fatalf("find after counts = %d rows, want 3", rows.Len())
	}
	if n := m.CandidateCount(q.Vertex(a)); n != 4 {
		t.Fatalf("candidate count = %d, want 4 persons", n)
	}
	if n1 := p.Count(c1, 0); n1 != 3 {
		t.Fatalf("count after find = %d, want 3", n1)
	}
}

// TestPackedAdjacency checks the Freeze-built CSR layer agrees with the
// edge-id adjacency lists.
func TestPackedAdjacency(t *testing.T) {
	g := testGraph()
	g.Freeze()
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		out := g.Out(id)
		packed := g.OutAdj(id)
		if len(out) != len(packed) {
			t.Fatalf("vertex %d: out sizes differ", v)
		}
		for i, eid := range out {
			e := g.Edge(eid)
			if packed[i].Edge != eid || packed[i].Vertex != e.To {
				t.Fatalf("vertex %d out[%d]: packed %+v vs edge %+v", v, i, packed[i], e)
			}
			if g.TypeName(packed[i].Type) != e.Type {
				t.Fatalf("vertex %d out[%d]: type id %d = %q, want %q", v, i, packed[i].Type, g.TypeName(packed[i].Type), e.Type)
			}
		}
		in := g.In(id)
		packedIn := g.InAdj(id)
		if len(in) != len(packedIn) {
			t.Fatalf("vertex %d: in sizes differ", v)
		}
		for i, eid := range in {
			e := g.Edge(eid)
			if packedIn[i].Edge != eid || packedIn[i].Vertex != e.From {
				t.Fatalf("vertex %d in[%d]: packed %+v vs edge %+v", v, i, packedIn[i], e)
			}
		}
	}
}

// TestFreezeInvalidation checks mutation after Freeze rebuilds the packed
// layer on next access.
func TestFreezeInvalidation(t *testing.T) {
	g := graph.New(2, 2)
	v0 := g.AddVertex(graph.Attrs{"type": graph.S("a")})
	v1 := g.AddVertex(graph.Attrs{"type": graph.S("a")})
	g.AddEdge(v0, v1, "x", nil)
	g.Freeze()
	if len(g.OutAdj(v0)) != 1 {
		t.Fatal("expected one out half-edge")
	}
	g.AddEdge(v1, v0, "y", nil)
	if len(g.InAdj(v0)) != 1 {
		t.Fatalf("in adjacency not rebuilt after mutation")
	}
	if _, ok := g.TypeID("y"); !ok {
		t.Fatal("new type must be numbered after rebuild")
	}
}
