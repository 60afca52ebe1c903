package search

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
)

func testGraph() *graph.Graph {
	g := graph.New(8, 8)
	p0 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Anna")})
	p1 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Bert")})
	p2 := g.AddVertex(graph.Attrs{"type": graph.S("person"), "name": graph.S("Cara")})
	u0 := g.AddVertex(graph.Attrs{"type": graph.S("university"), "name": graph.S("TU Dresden")})
	c0 := g.AddVertex(graph.Attrs{"type": graph.S("city"), "name": graph.S("Dresden")})
	g.AddEdge(p0, p1, "knows", nil)
	g.AddEdge(p1, p2, "knows", nil)
	g.AddEdge(p0, u0, "worksAt", nil)
	g.AddEdge(p1, u0, "worksAt", nil)
	g.AddEdge(u0, c0, "locatedIn", nil)
	g.BuildVertexIndex("type")
	return g
}

func personQuery(name string) *query.Query {
	q := query.New()
	preds := map[string]query.Predicate{"type": query.EqS("person")}
	if name != "" {
		preds["name"] = query.EqS(name)
	}
	q.AddVertex(preds)
	return q
}

// constEval returns an Eval ignoring the matching context — the kernel's
// bookkeeping is what these tests measure, not the matcher.
func constEval(v int) Eval { return func(*match.Ctx) int { return v } }

// TestExecutorDedupAndBudget covers the executed-map primitives and the
// budget/stop contract.
func TestExecutorDedupAndBudget(t *testing.T) {
	ex := NewExecutor(match.New(testGraph()))
	var m Metrics
	ex.Begin(Control{MaxExecuted: 2, Metrics: &m})
	if ex.Stopped() || ex.Remaining() != 2 {
		t.Fatalf("fresh run: stopped=%v remaining=%d", ex.Stopped(), ex.Remaining())
	}
	if ex.Seen("a") {
		t.Fatal("unexecuted key reported seen")
	}
	card, ok := ex.Execute("a", constEval(7))
	if !ok || card != 7 || ex.Executions() != 1 {
		t.Fatalf("Execute = (%d, %v), executions %d", card, ok, ex.Executions())
	}
	if !ex.Seen("a") {
		t.Fatal("executed key not seen")
	}
	if card, ok := ex.Cached("a"); !ok || card != 7 {
		t.Fatalf("Cached = (%d, %v)", card, ok)
	}
	if !ex.Visit("b") || ex.Visit("b") {
		t.Fatal("Visit must claim exactly once")
	}
	// Second execution exhausts the budget; the third must be refused.
	if _, ok := ex.Execute("c", constEval(1)); !ok {
		t.Fatal("second execution refused below budget")
	}
	if !ex.Stopped() {
		t.Fatal("budget spent but not stopped")
	}
	if _, ok := ex.Execute("d", constEval(1)); ok {
		t.Fatal("execution allowed beyond budget")
	}
	// ExecuteAlways bypasses the guard (mcs baseline semantics) and still
	// counts the execution.
	if got := ex.ExecuteAlways("", constEval(9)); got != 9 || ex.Executions() != 3 {
		t.Fatalf("ExecuteAlways = %d, executions %d", got, ex.Executions())
	}
	ex.Record(7)
	ex.Record(1)
	if tr := ex.Trace(); len(tr) != 2 || tr[0] != 7 || tr[1] != 1 {
		t.Fatalf("trace = %v", tr)
	}
	ex.End()
	c := m.Snapshot()
	if c.Executions != 3 || c.DedupHits != 3 {
		t.Fatalf("metrics = %+v", c)
	}
	// Begin resets per-run state but End keeps accumulating.
	ex.Begin(Control{MaxExecuted: 5, Metrics: &m})
	if ex.Seen("a") || len(ex.Trace()) != 0 {
		t.Fatal("Begin must reset dedup map and trace")
	}
	ex.End()
	if c := m.Snapshot(); c.Executions != 3 {
		t.Fatalf("accumulated executions = %d, want 3", c.Executions)
	}

	// A cancelled context stops the run before the next execution.
	ctx, cancel := context.WithCancel(context.Background())
	ex.Begin(Control{MaxExecuted: 100, Ctx: ctx})
	cancel()
	if !ex.Stopped() {
		t.Fatal("cancelled context must stop the run")
	}
	if _, ok := ex.Execute("e", constEval(1)); ok || ex.Executions() != 0 {
		t.Fatalf("Execute after cancellation: ok=%v executions=%d", ok, ex.Executions())
	}
	ex.End()
}

// TestResetDedupKeepsBudget covers the mcs per-component contract: the
// dedup/visited keys clear, the execution budget and counters continue.
func TestResetDedupKeepsBudget(t *testing.T) {
	ex := NewExecutor(match.New(testGraph()))
	ex.Begin(Control{MaxExecuted: 10})
	ex.Execute("a", constEval(1))
	ex.ResetDedup()
	if ex.Seen("a") {
		t.Fatal("ResetDedup must clear the executed keys")
	}
	if ex.Executions() != 1 || ex.Remaining() != 9 {
		t.Fatalf("ResetDedup must keep budget accounting: executions=%d remaining=%d",
			ex.Executions(), ex.Remaining())
	}
	ex.End()
}

// TestConcurrentExecutorsSharedMatcher is the -race hammer: many kernel
// instances run concurrently against ONE matcher (shared plan/count/candidate
// caches) and flush into ONE metrics sink, as pooled engine states do in the
// whydbd service. Each runs a consumption loop over real matcher counts with
// one duplicate, which the dedup answers without an execution.
func TestConcurrentExecutorsSharedMatcher(t *testing.T) {
	mt := match.New(testGraph())
	var m Metrics
	queries := []*query.Query{
		personQuery(""), personQuery("Anna"), personQuery("Bert"),
		personQuery("Cara"), personQuery("Dora"), personQuery("Nobody"),
		personQuery("Anna"), // dup
	}
	want := make([]int, len(queries))
	warm := mt.NewContext()
	for i, q := range queries {
		want[i] = match.CountKeyed(mt, warm, q.Key(), 100, func() *query.Query { return q })
	}
	const goroutines, rounds, distinct = 8, 25, 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := NewExecutor(mt)
			for round := 0; round < rounds; round++ {
				ex.Begin(Control{MaxExecuted: 100, Metrics: &m})
				for i, q := range queries {
					key := q.Key()
					if ex.Seen(key) {
						continue
					}
					card, ok := ex.Execute(key, func(ctx *match.Ctx) int {
						return match.CountKeyed(mt, ctx, key, 100, func() *query.Query { return q })
					})
					if !ok {
						errc <- fmt.Errorf("goroutine %d round %d: execution refused", g, round)
						return
					}
					if card != want[i] {
						errc <- fmt.Errorf("goroutine %d round %d query %d: count %d, want %d", g, round, i, card, want[i])
						return
					}
					ex.Record(card)
				}
				if got := len(ex.Trace()); got != distinct {
					errc <- fmt.Errorf("goroutine %d round %d: executed %d queries, want the %d distinct ones", g, round, got, distinct)
					return
				}
				ex.End()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if c := m.Snapshot(); c.Executions != goroutines*rounds*distinct || c.DedupHits != goroutines*rounds {
		t.Fatalf("accumulated counters = %+v, want %d executions and %d dedup hits",
			c, goroutines*rounds*distinct, goroutines*rounds)
	}
}

// TestStopPredicate proves Control.Stop ends the search before the next
// candidate execution, exactly like budget exhaustion: Stopped flips as soon
// as the predicate holds, and the progress it sees is the deterministic
// (executions, recorded, last) triple.
func TestStopPredicate(t *testing.T) {
	ex := NewExecutor(match.New(testGraph()))
	var seen []Progress
	ex.Begin(Control{
		MaxExecuted: 100,
		Stop: func(p Progress) bool {
			seen = append(seen, p)
			return p.Recorded > 0 && p.Last <= 2
		},
	})
	// No trace yet: the predicate must not fire on Last's zero value.
	if ex.Stopped() {
		t.Fatal("stopped before anything was recorded")
	}
	ex.Execute("a", constEval(9))
	ex.Record(9)
	if ex.Stopped() {
		t.Fatal("stopped with best-so-far 9 > ε")
	}
	ex.Execute("b", constEval(2))
	ex.Record(2)
	if !ex.Stopped() {
		t.Fatal("not stopped with best-so-far 2 ≤ ε")
	}
	last := seen[len(seen)-1]
	want := Progress{Executions: 2, Recorded: 2, Last: 2}
	if last != want {
		t.Fatalf("predicate saw %+v, want %+v", last, want)
	}
	ex.End()

	// Begin resets Last so a new run cannot inherit the old stop state.
	ex.Begin(Control{MaxExecuted: 100, Stop: func(p Progress) bool {
		return p.Recorded > 0 && p.Last <= 2
	}})
	if ex.Stopped() {
		t.Fatal("new run inherited previous run's recorded state")
	}
	ex.End()

	// A loop recording descending values 10, 9, 8, ... stops right after
	// the first value within ε = 3.
	ex.Begin(Control{MaxExecuted: 50, Stop: func(p Progress) bool {
		return p.Recorded > 0 && p.Last <= 3
	}})
	for i := 0; !ex.Stopped() && i < 20; i++ {
		ex.Execute(fmt.Sprintf("k%02d", i), constEval(10-i))
		ex.Record(10 - i)
	}
	if got, want := fmt.Sprint(ex.Trace()), fmt.Sprint([]int{10, 9, 8, 7, 6, 5, 4, 3}); got != want {
		t.Fatalf("trace = %v, want %v: stop right after recording 3", got, want)
	}
	ex.End()
}

// TestProbeHook proves Control.Probe runs before every candidate execution
// with the pre-execution count, and that a probe cancelling Ctx stops the
// search before the next execution — the kernel's fault-injection contract.
func TestProbeHook(t *testing.T) {
	ex := NewExecutor(match.New(testGraph()))
	var calls []int
	ex.Begin(Control{MaxExecuted: 3, Probe: func(n int) { calls = append(calls, n) }})
	ex.Execute("a", constEval(1))
	ex.Execute("b", constEval(2))
	ex.ExecuteAlways("", constEval(3))
	ex.Execute("c", constEval(4)) // budget spent: refused before the probe
	if fmt.Sprint(calls) != fmt.Sprint([]int{0, 1, 2}) {
		t.Fatalf("probe calls = %v, want [0 1 2]", calls)
	}
	ex.End()

	// A probe that cancels the context behaves exactly like a client
	// cancellation: the search stops before the next execution.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex.Begin(Control{MaxExecuted: 10, Ctx: ctx, Probe: func(n int) {
		if n == 2 {
			cancel()
		}
	}})
	ran := 0
	for i := 0; !ex.Stopped() && i < 10; i++ {
		if _, ok := ex.Execute(fmt.Sprintf("c%d", i), constEval(i)); ok {
			ran++
		}
	}
	if ran != 3 || ex.Executions() != 3 {
		t.Fatalf("executions after mid-search cancel = %d (ran %d), want 3", ex.Executions(), ran)
	}
	ex.End()
}

// TestKernelAllocsZero pins the kernel's steady state: on warmed storage the
// frontier's push/pop and the executor's per-candidate bookkeeping — on the
// hot path of every explanation search — allocate nothing. The bodies are
// the ones BenchmarkSearchKernel/frontier and /executor time.
func TestKernelAllocsZero(t *testing.T) {
	t.Run("frontier", func(t *testing.T) {
		f := NewFrontier(func(a, b int) bool { return a > b })
		run := func() {
			f.Reset()
			for j := 0; j < 256; j++ {
				f.Push(j * 2654435761 % 97) // mixed priorities, heavy ties
			}
			for f.Len() > 0 {
				f.Pop()
			}
		}
		run() // grow the heap once
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("256 push/pops on a reused frontier allocated %.1f times per run, want 0", allocs)
		}
	})
	t.Run("executor", func(t *testing.T) {
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("kernel-key-%04d", i)
		}
		ex := NewExecutor(match.New(testGraph()))
		eval := constEval(1)
		run := func() {
			ex.Begin(Control{MaxExecuted: 1 << 30})
			for _, k := range keys {
				if ex.Seen(k) {
					t.Fatalf("%s seen before it was executed", k)
				}
				card, ok := ex.Execute(k, eval)
				if !ok {
					t.Fatal("budget must not run out")
				}
				ex.Record(card)
			}
			for _, k := range keys { // steady-state dedup-hit path
				if !ex.Seen(k) {
					t.Fatalf("executed key %s must be seen", k)
				}
			}
			ex.End()
		}
		run() // grow the dedup map and the trace once
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("a 256-candidate run on a warmed executor allocated %.1f times, want 0", allocs)
		}
		if c := ex.Counters(); c.Executions != 256 || c.DedupHits != 256 {
			t.Fatalf("the measured run did not do the work: %+v", c)
		}
	})
}
