package match

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/query"
)

// countCacheQueries builds a family of distinct small queries over testGraph.
func countCacheQueries() []*query.Query {
	var qs []*query.Query
	for _, since := range []float64{2005, 2010, 2011, 2012, 2013, 2014, 2015} {
		q := query.New()
		a := q.AddVertex(personType())
		b := q.AddVertex(personType())
		q.AddEdge(a, b, []string{"knows"}, map[string]query.Predicate{"since": query.AtLeast(since)})
		qs = append(qs, q)
	}
	for _, typ := range []string{"worksAt", "studyAt", "locatedIn"} {
		q := query.New()
		a := q.AddVertex(nil)
		b := q.AddVertex(nil)
		q.AddEdge(a, b, []string{typ}, nil)
		qs = append(qs, q)
	}
	return qs
}

// TestCountCacheOffMatchesOn runs the same workload with the count cache
// disabled and demands identical counts.
func TestCountCacheOffMatchesOn(t *testing.T) {
	g := testGraph()
	on := New(g)
	off := New(g)
	off.SetCountCache(false)
	for round := 0; round < 2; round++ {
		for i, q := range countCacheQueries() {
			for _, cap := range []int{0, 1, 2} {
				a, b := on.Count(q, cap), off.Count(q, cap)
				if a != b {
					t.Fatalf("round %d query %d cap %d: cached %d != uncached %d", round, i, cap, a, b)
				}
			}
		}
	}
	if hits, _, _ := on.CountCacheStats(); hits == 0 {
		t.Fatal("cached matcher never hit its count cache")
	}
	if hits, misses, _ := off.CountCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled count cache was consulted: hits=%d misses=%d", hits, misses)
	}
}

// TestCountCacheConcurrent hammers the shared count cache from concurrent
// workers, each compiling its misses into a context of its own — run under
// -race this certifies the cache's locking and the shared candidate sets'
// read-only use. Workers deliberately overlap on the same novel keys to
// exercise racing misses.
func TestCountCacheConcurrent(t *testing.T) {
	m := New(testGraph())
	qs := countCacheQueries()
	want := make([]int, len(qs))
	ref := New(testGraph())
	for i, q := range qs {
		want[i] = ref.Count(q, 0)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := m.NewContext()
			for round := 0; round < 40; round++ {
				for i, q := range qs {
					if got := m.CountCtx(ctx, q, 0); got != want[i] {
						select {
						case errs <- fmt.Errorf("worker %d round %d query %d: count %d, want %d", w, round, i, got, want[i]):
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, _, entries := m.CountCacheStats()
	if entries != len(qs) {
		t.Fatalf("resident counts = %d, want %d", entries, len(qs))
	}
	// Racing first-touch misses may duplicate work, but count-cache hits
	// must dominate by orders of magnitude under this much reuse.
	if hits, misses, _ := m.CountCacheStats(); hits < 100*misses {
		t.Fatalf("hit/miss ratio implausible under reuse: hits=%d misses=%d", hits, misses)
	}
}

// TestPlanHoldsNoScratch: a plan holds what executing it reads and none of
// its compile scratch — the posting-list ids, the candidate key, the
// component numbering and the planner's flags stay beside the plan on the
// compiling context.
func TestPlanHoldsNoScratch(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType()) // an indexed equality: the posting-list path
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	q.AddEdge(b, c, []string{"locatedIn"}, nil)
	ctx := m.NewContext()
	p := m.compile(ctx, q)
	if p.Count(ctx, 0) == 0 {
		t.Fatal("query must have results")
	}
	read := map[string]bool{"g": true, "nv": true, "ne": true, "vids": true, "eids": true,
		"cands": true, "ops": true}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(*p)) {
		if !read[f.Name] {
			t.Errorf("Plan.%s is not read by an execution", f.Name)
		}
	}
	if cs := ctx.compile; cap(cs.ids) == 0 || cap(cs.key) == 0 || cap(cs.compOf) == 0 ||
		cap(cs.compNum) == 0 || cap(cs.edges) == 0 || cap(cs.bound) == 0 || cap(cs.usedEdge) == 0 {
		t.Fatalf("the compile scratch is not on the context: %+v", cs)
	}
}

// TestCompileAllocsZero: once a context has compiled a query, compiling it
// again — every count with the count cache off, every FindRows — allocates
// nothing. The query has two components, a bound edge predicate and a
// two-type disjunction, so every piece of planner scratch and every reused
// op's type bitset and predicate storage is exercised.
func TestCompileAllocsZero(t *testing.T) {
	m := New(testGraph())
	m.SetCountCache(false)
	q := query.New()
	a := q.AddVertex(personType())
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	q.AddEdge(a, b, []string{"worksAt", "studyAt"}, map[string]query.Predicate{"sinceYear": query.AtLeast(2000)})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	d := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(c, d, []string{"locatedIn"}, nil)

	ctx := m.NewContext()
	var rows Rows
	want := m.ReferenceCount(q, 0)
	if got := m.CountCtx(ctx, q, 0); got != want || want == 0 {
		t.Fatalf("count %d, reference %d, want equal and non-zero", got, want)
	}
	m.FindRows(ctx, q, Options{}, &rows)
	if rows.Len() != want {
		t.Fatalf("FindRows enumerated %d rows, want %d", rows.Len(), want)
	}
	for name, run := range map[string]func(){
		"count miss": func() { m.CountCtx(ctx, q, 0) },
		"FindRows":   func() { m.FindRows(ctx, q, Options{}, &rows) },
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s on a warm context allocated %.1f times per run, want 0", name, allocs)
		}
	}
	if hits, misses, _ := m.CountCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("the count cache was consulted: hits=%d misses=%d", hits, misses)
	}
}
