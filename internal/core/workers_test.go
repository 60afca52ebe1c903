package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestExplainWorkersInvariant checks the engine-level guarantee: the worker
// count only sizes how many explains may run at once, so the full
// explanation report is identical whatever it is set to.
func TestExplainWorkersInvariant(t *testing.T) {
	g := graph.New(8, 8)
	p0 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Anna")})
	p1 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Bert")})
	u0 := g.AddVertex(graph.Attrs{"type": graph.S("university"), "name": graph.S("TU Dresden")})
	c0 := g.AddVertex(graph.Attrs{"type": graph.S("city"), "name": graph.S("Dresden")})
	g.AddEdge(p0, p1, "knows", nil)
	g.AddEdge(p0, u0, "worksAt", nil)
	g.AddEdge(p1, u0, "worksAt", nil)
	g.AddEdge(u0, c0, "locatedIn", nil)
	g.BuildVertexIndex("type")

	q := query.New()
	qp := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	qu := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university"), "name": query.EqS("Oxford")})
	q.AddEdge(qp, qu, []string{"worksAt"}, nil)

	e := NewEngine(g)
	e.SetWorkers(1)
	if e.Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(1)", e.Workers())
	}
	one, err := e.Explain(q, Options{Expected: metrics.AtLeastOne})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		e.SetWorkers(workers)
		rep, err := e.Explain(q, Options{Expected: metrics.AtLeastOne})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Summary(), one.Summary(); got != want {
			t.Fatalf("workers=%d report diverged:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, want, workers, got)
		}
	}
	e.SetWorkers(0)
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetWorkers(0) must reset to GOMAXPROCS %d, got %d", runtime.GOMAXPROCS(0), e.Workers())
	}
}

// TestExplainStartsNoGoroutine holds every explanation search to its
// caller's goroutine. On an engine whose worker count is 4, the goroutine
// count never rises above its value before the explains: neither inside the
// improvement callbacks, mid-search in all three families, nor in a watcher
// that samples it throughout. The watcher is what catches a search that fans
// candidates out: it holds its extra goroutines only while a batch runs,
// which its own callbacks never see.
func TestExplainStartsNoGoroutine(t *testing.T) {
	e := NewEngine(datagen.LDBC(datagen.DefaultLDBC().Scaled(0.1)))
	e.SetWorkers(4)
	failing, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		t.Fatal(err)
	}
	// One P: a search that fanned a batch out would have to wait for it,
	// and the watcher runs while the batch's goroutines are alive.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var most atomic.Int64
	sample := func() {
		n := int64(runtime.NumGoroutine())
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				sample()
				runtime.Gosched()
			}
		}
	}()
	before := int64(runtime.NumGoroutine()) // the watcher included
	families := map[string]bool{}
	onImprovement := func(imp Improvement) {
		families[imp.Family] = true
		sample()
	}
	_, err = e.Explain(failing, Options{Expected: metrics.AtLeastOne, Budget: 120, OnImprovement: onImprovement})
	if err == nil {
		_, err = e.Explain(workload.LDBCQuery3(), Options{Expected: metrics.Interval{Lower: 1, Upper: 2}, Budget: 120, OnImprovement: onImprovement})
	}
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if len(families) != 3 {
		t.Fatalf("improvements came from %v; the explains must exercise all three families", families)
	}
	if n := most.Load(); n > before {
		t.Fatalf("%d goroutines during the explains, %d before them", n, before)
	}
}
