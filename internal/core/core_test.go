package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

func smallEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(datagen.LDBC(datagen.DefaultLDBC().Scaled(0.3)))
}

func TestExplainSatisfied(t *testing.T) {
	e := smallEngine(t)
	q := query.New()
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	rep, err := e.Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problem != metrics.Satisfied || rep.Subgraph != nil || len(rep.Rewritings) != 0 {
		t.Fatalf("satisfied query produced %+v", rep)
	}
}

func TestExplainWhyEmpty(t *testing.T) {
	e := smallEngine(t)
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city"), "name": query.EqS("Nowhere")})
	q.AddEdge(p, c, []string{"livesIn"}, nil)
	rep, err := e.Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problem != metrics.WhyEmpty {
		t.Fatalf("problem = %v", rep.Problem)
	}
	if rep.Subgraph == nil || rep.Subgraph.Differential.NumVertices() == 0 {
		t.Fatal("missing subgraph explanation")
	}
	if len(rep.Rewritings) == 0 {
		t.Fatal("missing modification-based explanations")
	}
	best := rep.Rewritings[0]
	if best.Cardinality < 1 {
		t.Fatalf("rewriting still empty: %+v", best)
	}
	if best.ResultDistance != 1 {
		t.Fatalf("result distance vs empty original must be 1, got %v", best.ResultDistance)
	}
	if !strings.Contains(rep.Summary(), "why-empty") {
		t.Fatalf("summary = %q", rep.Summary())
	}
}

func TestExplainWhySoFew(t *testing.T) {
	e := smallEngine(t)
	q := query.New()
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "name": query.EqS("Anna")})
	rep, err := e.Explain(q, Options{Expected: metrics.Interval{Lower: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problem != metrics.WhySoFew {
		t.Fatalf("problem = %v (card %d)", rep.Problem, rep.Cardinality)
	}
	if len(rep.Rewritings) == 0 {
		t.Fatal("no rewritings")
	}
	best := rep.Rewritings[0]
	if best.Cardinality <= rep.Cardinality {
		t.Fatalf("rewriting did not increase cardinality: %d <= %d", best.Cardinality, rep.Cardinality)
	}
	if best.CardinalityDistance >= rep.Expected.Distance(rep.Cardinality) {
		t.Fatal("rewriting did not reduce the cardinality distance")
	}
}

func TestExplainWhySoMany(t *testing.T) {
	e := smallEngine(t)
	q := query.New()
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	rep, err := e.Explain(q, Options{Expected: metrics.Interval{Lower: 1, Upper: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problem != metrics.WhySoMany {
		t.Fatalf("problem = %v", rep.Problem)
	}
	if len(rep.Rewritings) == 0 {
		t.Fatal("no rewritings")
	}
	best := rep.Rewritings[0]
	if best.Cardinality > rep.Cardinality && best.CardinalityDistance > 0 {
		t.Fatalf("rewriting went the wrong way: %+v", best)
	}
	// The result distance must be defined (original non-empty).
	if best.ResultDistance < 0 || best.ResultDistance > 1 {
		t.Fatalf("result distance out of range: %v", best.ResultDistance)
	}
}

func TestExplainCoarseVsFineSwitch(t *testing.T) {
	e := smallEngine(t)
	q, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		t.Fatal(err)
	}
	fine := true
	repFine, err := e.Explain(q, Options{FineGrained: &fine})
	if err != nil {
		t.Fatal(err)
	}
	coarse := false
	repCoarse, err := e.Explain(q, Options{FineGrained: &coarse})
	if err != nil {
		t.Fatal(err)
	}
	if len(repFine.Rewritings) == 0 || len(repCoarse.Rewritings) == 0 {
		t.Fatalf("both engines must produce rewritings (fine %d, coarse %d)",
			len(repFine.Rewritings), len(repCoarse.Rewritings))
	}
}

func TestExplainRejectsInvalidQuery(t *testing.T) {
	e := smallEngine(t)
	q := query.New()
	v := q.AddVertex(nil)
	q.AddEdge(v, v, nil, nil)
	q.RemoveVertex(v)
	// RemoveVertex cascades, so build a truly broken query by hand is not
	// possible through the public API; instead check nil-safety of Explain
	// with an empty query: it is valid and trivially empty.
	rep, err := e.Explain(query.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problem != metrics.WhyEmpty {
		t.Fatalf("empty query problem = %v", rep.Problem)
	}
}

func TestRewritingRanking(t *testing.T) {
	rs := []Rewriting{
		{CardinalityDistance: 5, Syntactic: 0.1},
		{CardinalityDistance: 0, Syntactic: 0.9},
		{CardinalityDistance: 0, Syntactic: 0.2},
	}
	sortRewritings(rs)
	if rs[0].Syntactic != 0.2 || rs[1].Syntactic != 0.9 || rs[2].CardinalityDistance != 5 {
		t.Fatalf("ranking wrong: %+v", rs)
	}
}

// TestRetiredEngineIsCollected pins what keeps write epochs cheap in memory:
// once its successor is published and nothing serves from it, an engine —
// matcher, statistics, its copy of the graph — is garbage at the very next
// collection. With the per-epoch state in sync.Pools it was not: a used Pool
// stays registered with the runtime, and keeps its owner alive, until the
// second collection after its last use.
func TestRetiredEngineIsCollected(t *testing.T) {
	collected := make(chan struct{})
	next := func() *Engine {
		e := smallEngine(t)
		q, err := workload.FailingVariant("LDBC QUERY 2")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explain(q, Options{Budget: 30}); err != nil { // touches every per-epoch free list
			t.Fatal(err)
		}
		if e.Matcher().Count(workload.LDBCQuery1(), 0) == 0 {
			t.Fatal("LDBC QUERY 1 must have results")
		}
		// The finalizer sits on the graph: the engine itself is on a cycle
		// (its pooled search state points back at its counters), and cycles
		// through a finalized object are never finalized.
		runtime.SetFinalizer(e.Graph(), func(*graph.Graph) { close(collected) })
		g := e.Graph().Fork()
		g.AddVertex(graph.Attrs{"type": graph.S("loadtest")})
		return e.Successor(g)
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("the retired engine's graph survived a collection")
	}
	runtime.KeepAlive(next)
}

// TestWideRangeExplainIsCheap pins the cost of a bounded range in the
// syntactic distance: LDBC QUERY 3 with age ∈ [20; 20 020] debugged as
// why-so-many. Every rewriting that narrows or widens that range is scored
// against it, and comparing two 20 001-integer sets value by value took
// about 23 s; computed from the integer bounds it takes milliseconds.
func TestWideRangeExplainIsCheap(t *testing.T) {
	e := smallEngine(t)
	q := workload.LDBCQuery3()
	q.Vertex(0).Preds["age"] = query.Between(20, 20+20000)
	start := time.Now()
	rep, err := e.Explain(q, Options{Expected: metrics.Interval{Lower: 1, Upper: 5}, Budget: 150})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("explain took %v, want under 1s", took)
	}
	if rep.Problem != metrics.WhySoMany || len(rep.Rewritings) == 0 {
		t.Fatalf("want a why-so-many answer with rewritings, got %v with %d", rep.Problem, len(rep.Rewritings))
	}
}
