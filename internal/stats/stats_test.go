package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
)

// testGraph mirrors the social graph of internal/match's tests.
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

func personUniCity() *query.Query {
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(p, u, []string{"worksAt"}, nil)
	q.AddEdge(u, c, []string{"locatedIn"}, nil)
	return q
}

func TestVertexAndEdgeCardinality(t *testing.T) {
	c := New(match.New(testGraph()))
	q := personUniCity()
	if got := c.VertexCardinality(q.Vertex(0)); got != 4 {
		t.Fatalf("persons = %d", got)
	}
	if got := c.EdgeCardinality(q.Edge(0)); got != 3 {
		t.Fatalf("worksAt edges = %d", got)
	}
}

func TestPathCardinalities(t *testing.T) {
	c := New(match.New(testGraph()))
	q := personUniCity()
	if got := c.Path1Cardinality(q, 0); got != 3 {
		t.Fatalf("path1(worksAt) = %d", got)
	}
	if got := c.Path1Cardinality(q, 1); got != 2 {
		t.Fatalf("path1(locatedIn) = %d", got)
	}
	if got := c.PathCardinality(q, []int{0, 1}); got != 3 {
		t.Fatalf("path2 = %d", got)
	}
	if got := c.PathCardinality(q, nil); got != 0 {
		t.Fatalf("path0 = %d", got)
	}
	avg := c.AveragePath1Cardinality(q)
	if math.Abs(avg-2.5) > 1e-12 {
		t.Fatalf("avg path1 = %v, want 2.5", avg)
	}
}

// TestStatisticsAreMatcherLookups pins the layering: the collector caches
// nothing, so a Path(n) probe is exactly one lookup in the matcher's count
// cache — under the fragment's key at cap 0, where an exact count of the
// fragment finds it — and a vertex probe exactly one in its candidate cache.
// Repeating either probe adds a hit and no miss.
func TestStatisticsAreMatcherLookups(t *testing.T) {
	m := match.New(testGraph())
	c := New(m)
	q := personUniCity()
	for _, tc := range []struct {
		name     string
		probe    func() int
		want     int
		counters func() (hits, misses, entries int)
	}{
		{"path(2)", func() int { return c.PathCardinality(q, []int{0, 1}) }, 3, m.CountCacheStats},
		{"path(1)", func() int { return c.Path1Cardinality(q, 1) }, 2, m.CountCacheStats},
		{"estimate's path(1)", func() int { return int(c.EstimateCardinality(q.SubqueryByEdges([]int{0}))) }, 3, m.CountCacheStats},
		{"vertex", func() int { return c.VertexCardinality(q.Vertex(0)) }, 4, m.CandCacheStats},
		{"vertex, ids apart", func() int { return c.VertexCardinality(q.Vertex(2)) }, 2, m.CandCacheStats},
	} {
		h0, m0, _ := tc.counters()
		if got := tc.probe(); got != tc.want {
			t.Fatalf("%s = %d, want %d", tc.name, got, tc.want)
		}
		h1, m1, _ := tc.counters()
		if h1+m1 != h0+m0+1 {
			t.Errorf("%s: a probe made %d lookups, want 1", tc.name, h1+m1-h0-m0)
		}
		if got := tc.probe(); got != tc.want {
			t.Fatalf("%s repeated = %d, want %d", tc.name, got, tc.want)
		}
		if h2, m2, _ := tc.counters(); h2 != h1+1 || m2 != m1 {
			t.Errorf("%s: a repeat moved hits %d → %d and misses %d → %d, want one hit", tc.name, h1, h2, m1, m2)
		}
	}
	_, before, _ := m.CountCacheStats()
	if got := m.Count(q.SubqueryByEdges([]int{0, 1}), 0); got != 3 {
		t.Fatalf("path(2) counted = %d, want 3", got)
	}
	if _, after, _ := m.CountCacheStats(); after != before {
		t.Errorf("an exact count of a probed fragment missed: the statistic is not its (key, cap 0) entry")
	}
}

func TestAveragePath1OnEdgelessQuery(t *testing.T) {
	c := New(match.New(testGraph()))
	q := query.New()
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	if got := c.AveragePath1Cardinality(q); got != 3 {
		t.Fatalf("avg vertex card = %v, want (4+2)/2 = 3", got)
	}
	if got := c.AveragePath1Cardinality(query.New()); got != 0 {
		t.Fatalf("empty query avg = %v", got)
	}
}

func TestEstimateCardinality(t *testing.T) {
	c := New(match.New(testGraph()))
	m := match.New(testGraph())
	q := personUniCity()
	est := c.EstimateCardinality(q)
	exact := float64(m.Count(q, 0))
	// Tree query: estimate = path1(worksAt)*path1(locatedIn)/card(uni)
	// = 3*2/2 = 3 = exact.
	if math.Abs(est-exact) > 1e-9 {
		t.Fatalf("estimate = %v, exact = %v", est, exact)
	}
}

func TestEstimateCardinalityZero(t *testing.T) {
	c := New(match.New(testGraph()))
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("dragon")})
	q.AddEdge(p, u, []string{"worksAt"}, nil)
	if got := c.EstimateCardinality(q); got != 0 {
		t.Fatalf("estimate = %v, want 0", got)
	}
}

func TestEstimateCardinalityIsolatedAndCycle(t *testing.T) {
	c := New(match.New(testGraph()))
	// Isolated vertex component multiplies in its candidate count.
	q := personUniCity()
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	est := c.EstimateCardinality(q)
	if math.Abs(est-6) > 1e-9 { // 3 (tree) * 2 (isolated city)
		t.Fatalf("estimate with isolated vertex = %v, want 6", est)
	}
	// Triangle: estimate applies cycle-edge selectivity; must stay positive
	// and finite for the existing knows-triangle.
	tri := query.New()
	a := tri.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	b := tri.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	d := tri.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	tri.AddEdge(a, b, []string{"knows"}, nil)
	tri.AddEdge(a, d, []string{"knows"}, nil)
	tri.AddEdge(b, d, []string{"knows"}, nil)
	est = c.EstimateCardinality(tri)
	if est <= 0 || math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("triangle estimate = %v", est)
	}
}

// TestInducedChange checks InducedRatio on the estimates of a query and of
// the query with one predicate deleted.
func TestInducedChange(t *testing.T) {
	c := New(match.New(testGraph()))
	induced := func(q *query.Query) float64 {
		after, err := query.Apply(q, query.DeletePredicate{On: query.Target{Kind: query.TargetVertex, ID: 2, Attr: "name"}})
		if err != nil {
			t.Fatal(err)
		}
		return InducedRatio(c.EstimateCardinality(q), c.EstimateCardinality(after))
	}
	// Dropping the city-name predicate relaxes: ratio > 1.
	q := personUniCity()
	q.Vertex(2).Preds["name"] = query.EqS("Dresden")
	if up := induced(q); up <= 1 {
		t.Fatalf("relaxing induced change = %v, want > 1", up)
	}
	// From an empty estimate to a positive one → +Inf.
	q = personUniCity()
	q.Vertex(2).Preds["name"] = query.EqS("Nowhere")
	if inf := induced(q); !math.IsInf(inf, 1) {
		t.Fatalf("0→positive induced change = %v, want +Inf", inf)
	}
}

func TestBuildDomain(t *testing.T) {
	d := BuildDomain(testGraph(), 0)
	if got := d.VertexValues["type"]; len(got) != 3 || got[0] != graph.S("person") {
		t.Fatalf("vertex type domain = %v", got)
	}
	if len(d.EdgeTypes) != 4 || d.EdgeTypes[0] != "knows" && d.EdgeTypes[0] != "worksAt" {
		t.Fatalf("edge types = %v", d.EdgeTypes)
	}
	if got := d.EdgeValues["since"]; len(got) != 3 {
		t.Fatalf("edge since domain = %v", got)
	}
	// topK caps the catalog.
	d2 := BuildDomain(testGraph(), 2)
	if got := d2.VertexValues["name"]; len(got) != 2 {
		t.Fatalf("capped name domain = %v", got)
	}
}

func TestDomainPerKindCatalog(t *testing.T) {
	d := BuildDomain(testGraph(), 0)
	// Persons have ages; cities do not.
	if vals := d.VertexAttrValues("person", "age"); len(vals) != 3 {
		t.Fatalf("person ages = %v", vals)
	}
	if vals := d.VertexAttrValues("city", "age"); len(vals) != 0 {
		t.Fatalf("city ages = %v", vals)
	}
	// Unknown kind falls back to the global catalog.
	if vals := d.VertexAttrValues("ghost", "age"); len(vals) != 3 {
		t.Fatalf("fallback ages = %v", vals)
	}
	attrs := d.VertexAttrs("city")
	if len(attrs) != 2 || attrs[0] != "name" || attrs[1] != "type" {
		t.Fatalf("city attrs = %v", attrs)
	}
	if len(d.VertexAttrs("")) < 3 {
		t.Fatalf("global attrs = %v", d.VertexAttrs(""))
	}
}

// TestTombstonedEdgesLeaveStatistics removes every edge of one type — the
// only carrier of the "sinceYear" attribute — and requires both statistics
// that scan the edge table to forget them: the domain catalog must not rank
// the type or its attribute values (modtree would propose them), and the
// cardinality of an edge without type constraint is the live edge count.
func TestTombstonedEdgesLeaveStatistics(t *testing.T) {
	g := testGraph()
	for _, id := range append([]graph.EdgeID(nil), g.EdgesByType("worksAt")...) {
		if err := g.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	d := BuildDomain(g, 0)
	for _, typ := range d.EdgeTypes {
		if typ == "worksAt" {
			t.Fatalf("removed type still ranked: %v", d.EdgeTypes)
		}
	}
	if len(d.EdgeTypes) != g.NumEdgeTypes() {
		t.Fatalf("domain has %d edge types, graph has %d", len(d.EdgeTypes), g.NumEdgeTypes())
	}
	if vals, ok := d.EdgeValues["sinceYear"]; ok {
		t.Fatalf("values of removed edges still cataloged: %v", vals)
	}
	if got := len(d.EdgeValues["since"]); got != 3 {
		t.Fatalf("since values = %d, want 3", got)
	}

	any := query.New()
	a, b := any.AddVertex(nil), any.AddVertex(nil)
	eid := any.AddEdge(a, b, nil, nil)
	m := match.New(g)
	if got, want := m.EdgeCandidateCount(any.Edge(eid)), g.NumLiveEdges(); got != want {
		t.Fatalf("untyped edge cardinality %d, want the %d live edges", got, want)
	}
	if got, want := New(m).EdgeCardinality(any.Edge(eid)), g.NumLiveEdges(); got != want {
		t.Fatalf("collector's untyped edge cardinality %d, want %d", got, want)
	}
}

// TestDeriveDomain holds Domain.Derive to a rebuild, frequency tables
// included, over a chain of random batches on the test graph: added vertices
// of old and new kinds, attributes only one vertex carries, edges with and
// without attributes, removals that cascade and that empty a kind, a type or
// an attribute, and elements added and removed by the same batch. After every
// batch the predecessor must also still equal a rebuild over its own graph:
// deriving moves cells in copies, never in the tables it was given.
func TestDeriveDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, topK := range []int{0, 2} {
		g := testGraph()
		g.Freeze()
		dom := BuildDomain(g, topK)
		kinds := []string{"person", "university", "city", "robot"}
		types := []string{"knows", "worksAt", "studyAt", "locatedIn", "builtBy"}
		for batch := 0; batch < 60; batch++ {
			f := g.Fork()
			for n := 1 + rng.Intn(5); n > 0; n-- {
				live := func() graph.VertexID {
					for {
						if v := graph.VertexID(rng.Intn(f.NumVertices())); !f.VertexRemoved(v) {
							return v
						}
					}
				}
				switch op := rng.Intn(6); {
				case op == 0:
					attrs := graph.Attrs{"type": graph.S(kinds[rng.Intn(len(kinds))]), "age": graph.N(float64(20 + rng.Intn(4)))}
					if rng.Intn(3) == 0 {
						attrs["serial"] = graph.N(float64(batch))
					}
					f.AddVertex(attrs)
				case op == 1:
					f.AddVertex(nil)
				case op <= 3:
					var attrs graph.Attrs
					if rng.Intn(2) == 0 {
						attrs = graph.Attrs{"since": graph.N(float64(2010 + rng.Intn(3)))}
					}
					f.AddEdge(live(), live(), types[rng.Intn(len(types))], attrs)
				case op == 4 && f.NumLiveEdges() > 0:
					if id := graph.EdgeID(rng.Intn(f.NumEdges())); !f.EdgeRemoved(id) {
						if err := f.RemoveEdge(id); err != nil {
							t.Fatal(err)
						}
					}
				case f.NumLiveVertices() > 2:
					if err := f.RemoveVertex(live()); err != nil {
						t.Fatal(err)
					}
				}
			}
			next := dom.Derive(f, f.Seal())
			if want := buildDomain(f, topK); !reflect.DeepEqual(next, want) {
				t.Fatalf("topK %d, batch %d: derived domain\n%+v\nwant\n%+v", topK, batch, next, want)
			}
			if want := buildDomain(g, topK); batch > 0 && !reflect.DeepEqual(dom, want) {
				t.Fatalf("topK %d, batch %d: deriving wrote into its predecessor:\n%+v\nwant\n%+v", topK, batch, dom, want)
			}
			if got, want := BuildDomain(f, topK), next; !reflect.DeepEqual(got.VertexValues, want.VertexValues) || !reflect.DeepEqual(got.EdgeTypes, want.EdgeTypes) {
				t.Fatalf("topK %d, batch %d: BuildDomain's catalogs differ from the derived ones", topK, batch)
			}
			g, dom = f, next
		}
	}
}
