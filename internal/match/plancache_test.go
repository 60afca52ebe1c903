package match

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/query"
)

// planCacheQueries builds a family of distinct small queries over testGraph.
func planCacheQueries() []*query.Query {
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

// TestPlanCacheHitSkipsCompilation proves the acceptance criterion: a repeat
// query performs zero compilations. Every plan-cache miss is exactly one
// compilation; repeats are served by the executed-count cache (same cap) or
// the plan cache (novel cap), and neither moves the miss counter.
func TestPlanCacheHitSkipsCompilation(t *testing.T) {
	m := New(testGraph())
	qs := planCacheQueries()
	want := make([]int, len(qs))
	for i, q := range qs {
		want[i] = m.Count(q, 0)
	}
	_, missesAfterFirst, entries := m.PlanCacheStats()
	if missesAfterFirst != len(qs) {
		t.Fatalf("first pass misses = %d, want %d (one compilation per novel query)", missesAfterFirst, len(qs))
	}
	if entries != len(qs) {
		t.Fatalf("resident plans = %d, want %d", entries, len(qs))
	}
	for round := 0; round < 50; round++ {
		for i, q := range qs {
			if got := m.Count(q, 0); got != want[i] {
				t.Fatalf("round %d query %d: count %d, want %d", round, i, got, want[i])
			}
			// A fresh cap per round defeats the count cache, forcing the
			// lookup through to the plan cache.
			m.Count(q, 1000+round)
		}
	}
	hits, misses, _ := m.PlanCacheStats()
	if misses != missesAfterFirst {
		t.Fatalf("repeat executions compiled: plan misses rose from %d to %d", missesAfterFirst, misses)
	}
	if wantHits := 50 * len(qs); hits < wantHits {
		t.Fatalf("plan hits = %d, want >= %d", hits, wantHits)
	}
	cHits, cMisses, cEntries := m.CountCacheStats()
	if wantHits := 50 * len(qs); cHits < wantHits {
		t.Fatalf("count-cache hits = %d, want >= %d", cHits, wantHits)
	}
	if cMisses == 0 || cEntries == 0 {
		t.Fatalf("count cache never filled: misses=%d entries=%d", cMisses, cEntries)
	}
}

// TestPlanCacheOffMatchesOn runs the same workload with the cache disabled
// and demands identical counts.
func TestPlanCacheOffMatchesOn(t *testing.T) {
	g := testGraph()
	on := New(g)
	off := New(g)
	off.SetPlanCache(false)
	for round := 0; round < 2; round++ {
		for i, q := range planCacheQueries() {
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
	if hits, misses, _ := on.PlanCacheStats(); hits+misses == 0 {
		t.Fatal("cached matcher never consulted its plan cache")
	}
	if hits, misses, _ := off.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled plan cache was consulted: hits=%d misses=%d", hits, misses)
	}
	if hits, misses, _ := off.CountCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled count cache was consulted: hits=%d misses=%d", hits, misses)
	}
}

// TestPlanCacheConcurrent hammers the shared plan cache from concurrent
// workers — run under -race this certifies the cache's locking and the
// published plans' read-only execution. Workers deliberately overlap on the
// same novel keys to exercise racing misses.
func TestPlanCacheConcurrent(t *testing.T) {
	m := New(testGraph())
	qs := planCacheQueries()
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
	_, _, entries := m.PlanCacheStats()
	if entries != len(qs) {
		t.Fatalf("resident plans = %d, want %d", entries, len(qs))
	}
	// Racing first-touch misses may duplicate work, but count-cache hits
	// must dominate by orders of magnitude under this much reuse.
	if hits, misses, _ := m.CountCacheStats(); hits < 100*misses {
		t.Fatalf("hit/miss ratio implausible under reuse: hits=%d misses=%d", hits, misses)
	}
}

// TestPlanCacheEpochEviction forces the entry bound and checks the cache
// resets wholesale without breaking results.
func TestPlanCacheEpochEviction(t *testing.T) {
	m := New(testGraph())
	base := query.New()
	base.AddVertex(personType())
	want := m.Count(base, 0)
	for i := 0; i < planCacheCap+10; i++ {
		q := query.New()
		q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "age": query.AtLeast(float64(i))})
		m.Count(q, 0)
	}
	_, _, entries := m.PlanCacheStats()
	if entries > planCacheCap {
		t.Fatalf("resident plans = %d, exceeds cap %d", entries, planCacheCap)
	}
	if got := m.Count(base, 0); got != want {
		t.Fatalf("post-eviction count %d, want %d", got, want)
	}
}

// TestCachedPlanHoldsNoScratch: a plan in the plan cache holds what executing
// it reads, all of it counted by planBytes, and none of its compile scratch —
// the posting-list ids, the candidate key and the planner's flags stay on the
// compiling context.
func TestCachedPlanHoldsNoScratch(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	a := q.AddVertex(personType()) // an indexed equality: the posting-list path
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdge(a, b, []string{"worksAt"}, nil)
	q.AddEdge(b, c, []string{"locatedIn"}, nil)
	ctx := m.NewContext()
	ctx.keyBuf = q.AppendKey(ctx.keyBuf[:0])
	p := m.cachedPlan(ctx, q)
	if p.Count(ctx, 0) == 0 {
		t.Fatal("query must have results")
	}
	accounted := map[string]bool{"g": true, "nv": true, "ne": true, "vids": true, "eids": true,
		"vpreds": true, "cands": true, "ops": true}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(*p)) {
		if !accounted[f.Name] {
			t.Errorf("Plan.%s is neither read by an execution nor counted by planBytes", f.Name)
		}
	}
	if cs := ctx.compile; cap(cs.ids) == 0 || cap(cs.key) == 0 || cap(cs.bound) == 0 || cap(cs.usedEdge) == 0 {
		t.Fatalf("the compile scratch is not on the context: %+v", cs)
	}
}
