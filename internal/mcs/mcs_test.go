package mcs

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/stats"
)

// testGraph is the shared social micro-graph (see internal/match tests).
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

func env() (*match.Matcher, *stats.Collector) {
	m := match.New(testGraph())
	return m, stats.New(m)
}

// failingQuery asks for a person working at a university located in a city
// named "Berlin" — no such city exists, so the query is empty. The failed
// part is exactly the city constraint.
func failingQuery() *query.Query {
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city"), "name": query.EqS("Berlin")})
	q.AddEdge(p, u, []string{"worksAt"}, nil)
	q.AddEdge(u, c, []string{"locatedIn"}, nil)
	return q
}

func TestDiscoverMCSFindsFailedEdge(t *testing.T) {
	m, st := env()
	q := failingQuery()
	for _, opts := range []Options{{}, {UseWCC: true}, {SinglePath: true}, {UseWCC: true, SinglePath: true}} {
		ex := DiscoverMCS(m, st, q, opts)
		if !ex.Satisfied {
			t.Fatalf("opts %+v: MCS should satisfy ≥1, got card %d", opts, ex.Cardinality)
		}
		if ex.MCS.Edge(0) == nil {
			t.Fatalf("opts %+v: worksAt edge should be in MCS", opts)
		}
		if ex.MCS.Edge(1) != nil {
			t.Fatalf("opts %+v: failed locatedIn->Berlin edge must not be in MCS", opts)
		}
		if ex.Differential.Edge(1) == nil {
			t.Fatalf("opts %+v: differential must contain the failed edge", opts)
		}
		if ex.Differential.Vertex(2) == nil {
			t.Fatalf("opts %+v: differential must contain the Berlin vertex", opts)
		}
		if ex.Traversals == 0 {
			t.Fatalf("opts %+v: traversals not counted", opts)
		}
	}
}

func TestDiscoverMCSOnSucceedingQuery(t *testing.T) {
	m, st := env()
	q := failingQuery()
	q.Vertex(2).Preds["name"] = query.EqS("Dresden")
	ex := DiscoverMCS(m, st, q, Options{})
	if !ex.Satisfied || ex.MCS.NumEdges() != 2 {
		t.Fatalf("whole query matches; MCS = %d edges, satisfied=%v", ex.MCS.NumEdges(), ex.Satisfied)
	}
	if ex.Differential.NumEdges() != 0 || ex.Differential.NumVertices() != 0 {
		t.Fatalf("differential should be empty, got %d/%d", ex.Differential.NumVertices(), ex.Differential.NumEdges())
	}
}

func TestDiscoverMCSTotallyFailingQuery(t *testing.T) {
	m, st := env()
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("dragon")})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("unicorn")})
	q.AddEdge(a, b, []string{"breathes"}, nil)
	ex := DiscoverMCS(m, st, q, Options{})
	if ex.Satisfied {
		t.Fatal("nothing can match")
	}
	if ex.Differential.NumEdges() != 1 {
		t.Fatalf("differential must hold the whole query, got %d edges", ex.Differential.NumEdges())
	}
}

func TestDiscoverMCSIsolatedVertices(t *testing.T) {
	m, st := env()
	q := failingQuery()
	iso := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")}) // matchable isolated vertex
	bad := q.AddVertex(map[string]query.Predicate{"type": query.EqS("dragon")})
	ex := DiscoverMCS(m, st, q, Options{UseWCC: true})
	if ex.MCS.Vertex(iso) == nil {
		t.Fatal("matchable isolated vertex belongs to the MCS (§4.3.3)")
	}
	if ex.MCS.Vertex(bad) != nil {
		t.Fatal("unmatchable isolated vertex cannot be in the MCS")
	}
	if ex.Differential.Vertex(bad) == nil {
		t.Fatal("unmatchable isolated vertex must be in the differential")
	}
}

func TestSinglePathUsesFewerTraversals(t *testing.T) {
	m, st := env()
	q := failingQuery()
	// Extend the query so branching matters.
	p2 := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	q.AddEdge(p2, 1, []string{"studyAt"}, nil)
	full := DiscoverMCS(m, st, q, Options{})
	single := DiscoverMCS(m, st, q, Options{SinglePath: true})
	if single.Traversals > full.Traversals {
		t.Fatalf("single path used %d traversals, full search %d", single.Traversals, full.Traversals)
	}
	if !single.Satisfied {
		t.Fatal("single path should still find a satisfying subquery here")
	}
}

func TestWCCReducesWork(t *testing.T) {
	m, st := env()
	// Two disconnected failing patterns.
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university"), "name": query.EqS("Oxford")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	d := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city"), "name": query.EqS("Rome")})
	q.AddEdge(c, d, []string{"locatedIn"}, nil)
	naive := DiscoverMCS(m, st, q, Options{})
	wcc := DiscoverMCS(m, st, q, Options{UseWCC: true})
	if wcc.MCS.NumVertices() == 0 {
		t.Fatal("WCC run should keep the matchable parts")
	}
	// Both must agree that the Oxford and Rome constraints failed.
	for _, ex := range []Explanation{naive, wcc} {
		if ex.MCS.Edge(0) != nil || ex.MCS.Edge(1) != nil {
			t.Fatalf("failed edges must not be in MCS: %v", ex.MCS.EdgeIDs())
		}
	}
}

func TestBoundedMCSTooFew(t *testing.T) {
	m, st := env()
	// person -worksAt-> university has 3 embeddings; demand at least 2:
	// adding the sinceYear >= 2005 predicate drops it to 1 (why-so-few).
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(p, u, []string{"worksAt"}, map[string]query.Predicate{"sinceYear": query.AtLeast(2005)})
	q.AddEdge(u, c, []string{"locatedIn"}, nil)
	bounds := metrics.Interval{Lower: 2}
	ex := BoundedMCS(m, st, q, bounds, Options{})
	if !ex.Satisfied {
		t.Fatalf("expected a satisfying subquery, got card=%d", ex.Cardinality)
	}
	// The locatedIn edge alone delivers 2 results and satisfies the bound;
	// the selective worksAt edge is the differential.
	if ex.MCS.Edge(1) == nil {
		t.Fatal("locatedIn edge should be in the MCS")
	}
	if ex.MCS.Edge(0) != nil {
		t.Fatal("over-selective worksAt edge should be excluded")
	}
}

func TestBoundedMCSTooMany(t *testing.T) {
	m, st := env()
	// knows pattern delivers 3 pairs; cap at 1 → why-so-many. The bounded
	// search returns the closest subquery and marks satisfaction state.
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	q.AddEdge(a, b, []string{"knows"}, nil)
	bounds := metrics.Interval{Lower: 1, Upper: 1}
	ex := BoundedMCS(m, st, q, bounds, Options{})
	if ex.Satisfied {
		t.Fatalf("no subquery of the knows pattern delivers exactly 1; got card=%d path=%v", ex.Cardinality, ex.Path)
	}
	// Bounded evaluation must not have counted far past the cap.
	if ex.Cardinality > bounds.Upper+1 {
		t.Fatalf("bounded evaluation overshot: %d", ex.Cardinality)
	}
}

func TestUserWeightsSteerTraversal(t *testing.T) {
	m, st := env()
	// Query with two failing branches from the university: city name Berlin
	// (fails) and person name Elena (fails). With weight on edge 1 the MCS
	// search prefers covering edge 1's branch first.
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(p, u, []string{"worksAt"}, nil)   // edge 0, succeeds
	q.AddEdge(u, c, []string{"locatedIn"}, nil) // edge 1, succeeds
	weighted := DiscoverMCS(m, st, q, Options{SinglePath: true, EdgeWeights: map[int]float64{1: 10}})
	if len(weighted.Path) == 0 || weighted.Path[0] != 1 {
		t.Fatalf("traversal should start at the user-weighted edge, path=%v", weighted.Path)
	}
	unweighted := DiscoverMCS(m, st, q, Options{SinglePath: true})
	if len(unweighted.Path) == 0 || unweighted.Path[0] != 1 {
		// Unweighted order follows Path(1) selectivity: locatedIn (2) before
		// worksAt (3), so edge 1 comes first here as well.
		t.Fatalf("selectivity order broken, path=%v", unweighted.Path)
	}
}

func TestExplanationRank(t *testing.T) {
	m, st := env()
	q := failingQuery()
	ex := DiscoverMCS(m, st, q, Options{})
	// MCS covers edge 0 only.
	if got := ex.Rank(nil, q); got != 0.5 {
		t.Fatalf("unweighted rank = %v, want 0.5", got)
	}
	if got := ex.Rank(map[int]float64{0: 3, 1: 1}, q); got != 0.75 {
		t.Fatalf("weighted rank = %v, want 0.75", got)
	}
	if got := (Explanation{MCS: query.New()}).Rank(nil, query.New()); got != 0 {
		t.Fatalf("empty rank = %v", got)
	}
}

func TestTraversalBudget(t *testing.T) {
	m, st := env()
	q := failingQuery()
	var opts Options
	opts.MaxExecuted = 1
	ex := DiscoverMCS(m, st, q, opts)
	if ex.Traversals > 1 {
		t.Fatalf("budget exceeded: %d", ex.Traversals)
	}
}

// Property-style check: the MCS is always a subquery of the original, and
// for why-empty its subquery matches at least once when Satisfied.
func TestMCSIsSubqueryInvariant(t *testing.T) {
	m, st := env()
	queries := []*query.Query{failingQuery()}
	q2 := failingQuery()
	q2.Vertex(0).Preds["name"] = query.EqS("Nobody")
	queries = append(queries, q2)
	q3 := failingQuery()
	q3.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	queries = append(queries, q3)
	for i, q := range queries {
		for _, opts := range []Options{{}, {UseWCC: true}, {SinglePath: true}} {
			ex := DiscoverMCS(m, st, q, opts)
			for _, eid := range ex.MCS.EdgeIDs() {
				if q.Edge(eid) == nil {
					t.Fatalf("query %d: MCS edge %d not in original", i, eid)
				}
			}
			for _, vid := range ex.MCS.VertexIDs() {
				if q.Vertex(vid) == nil {
					t.Fatalf("query %d: MCS vertex %d not in original", i, vid)
				}
			}
			if ex.Satisfied && ex.MCS.NumVertices() > 0 && m.Count(ex.MCS, 1) == 0 {
				t.Fatalf("query %d: satisfied MCS has no embedding", i)
			}
			// MCS and differential together cover the query's edges.
			for _, eid := range q.EdgeIDs() {
				inM := ex.MCS.Edge(eid) != nil
				inD := ex.Differential.Edge(eid) != nil
				if inM == inD {
					t.Fatalf("query %d: edge %d must be in exactly one of MCS/differential (mcs=%v diff=%v)", i, eid, inM, inD)
				}
			}
		}
	}
}
