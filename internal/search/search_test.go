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
	if ex.Stopped() || ex.Remaining() != 2 || ex.Width() != 1 || ex.Parallel() {
		t.Fatalf("fresh sequential run: stopped=%v remaining=%d width=%d parallel=%v",
			ex.Stopped(), ex.Remaining(), ex.Width(), ex.Parallel())
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
	if c.Executions != 3 || c.DedupHits != 3 || c.Speculated != 0 || c.SpecWaste != 0 {
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
}

// TestSpeculateSliceBudgetMidWave proves speculation never outruns the
// execution budget: a wave is capped at the remaining budget even when the
// pool is wider, and once the budget is spent mid-search no further wave
// runs at all.
func TestSpeculateSliceBudgetMidWave(t *testing.T) {
	ex := NewExecutor(match.New(testGraph()))
	var m Metrics
	ex.Begin(Control{MaxExecuted: 3, Workers: 4, Metrics: &m})
	nodes := []int{10, 11, 12, 13, 14, 15}
	key := func(n int) string { return fmt.Sprintf("k%d", n) }
	eval := func(_ *match.Ctx, n int) int { return n }
	SpeculateSlice(ex, nodes, key, eval)
	if c := ex.Counters(); c.Speculated != 3 {
		t.Fatalf("wave must cap at the remaining budget 3, speculated %d", c.Speculated)
	}
	// Consume the three speculated results; the values must be the
	// deterministic eval values, and each counts as one execution.
	for _, n := range nodes[:3] {
		card, ok := ex.Execute(key(n), func(*match.Ctx) int {
			t.Fatalf("key %s was speculated and must not evaluate inline", key(n))
			return -1
		})
		if !ok || card != n {
			t.Fatalf("consume %d = (%d, %v)", n, card, ok)
		}
	}
	if !ex.Stopped() {
		t.Fatal("budget must be spent")
	}
	// Budget is gone mid-search: a new wave must not launch anything.
	SpeculateSlice(ex, nodes[3:], key, eval)
	if c := ex.Counters(); c.Speculated != 3 {
		t.Fatalf("speculation after budget exhaustion: %d", c.Speculated)
	}
	ex.End()
	if c := m.Snapshot(); c.Executions != 3 || c.Speculated != 3 || c.SpecWaste != 0 {
		t.Fatalf("metrics = %+v", c)
	}
}

// TestCancellationBetweenSpeculationAndConsumption fires the context after a
// wave was launched but before the sequential loop consumed it: Execute must
// refuse (the stop-before-next-execution contract) and every speculated
// value must be accounted as waste.
func TestCancellationBetweenSpeculationAndConsumption(t *testing.T) {
	ex := NewExecutor(match.New(testGraph()))
	var m Metrics
	ctx, cancel := context.WithCancel(context.Background())
	ex.Begin(Control{MaxExecuted: 100, Workers: 2, Ctx: ctx, Metrics: &m})
	nodes := []int{1, 2}
	key := func(n int) string { return fmt.Sprintf("k%d", n) }
	SpeculateSlice(ex, nodes, key, func(_ *match.Ctx, n int) int { return n })
	if c := ex.Counters(); c.Speculated != 2 {
		t.Fatalf("speculated = %d, want 2", c.Speculated)
	}
	cancel()
	if !ex.Stopped() {
		t.Fatal("cancelled context must stop the run")
	}
	if _, ok := ex.Execute(key(1), constEval(-1)); ok {
		t.Fatal("Execute must refuse after cancellation")
	}
	ex.End()
	if c := m.Snapshot(); c.Executions != 0 || c.SpecWaste != 2 {
		t.Fatalf("metrics = %+v (want 0 executions, 2 wasted)", c)
	}
}

// TestSpeculationParityWithSequential runs the same toy consumption loop
// sequentially and speculatively over real matcher counts: consumed values,
// execution counts, and traces must be byte-identical.
func TestSpeculationParityWithSequential(t *testing.T) {
	mt := match.New(testGraph())
	queries := []*query.Query{
		personQuery(""), personQuery("Anna"), personQuery("Bert"),
		personQuery("Cara"), personQuery("Nobody"), personQuery("Anna"), // dup
	}
	run := func(workers int) (trace []int, counters Counters) {
		ex := NewExecutor(mt)
		ex.Begin(Control{MaxExecuted: 100, CountCap: 100, Workers: workers})
		keys := make([]string, len(queries))
		for i, q := range queries {
			keys[i] = q.Key()
		}
		for i, q := range queries {
			if ex.Parallel() && i%ex.Width() == 0 {
				SpeculateSlice(ex, queries[i:],
					func(q *query.Query) string { return q.Key() },
					func(ctx *match.Ctx, q *query.Query) int { return mt.CountKeyed(ctx, q, q.Key(), 100) })
			}
			if ex.Seen(keys[i]) {
				continue
			}
			card, ok := ex.Execute(keys[i], func(ctx *match.Ctx) int {
				return mt.CountKeyed(ctx, q, keys[i], 100)
			})
			if !ok {
				break
			}
			ex.Record(card)
		}
		trace = append([]int(nil), ex.Trace()...)
		counters = ex.Counters()
		ex.End()
		return trace, counters
	}
	seqTrace, seqC := run(1)
	if len(seqTrace) != 5 {
		t.Fatalf("sequential executed %d distinct queries, want 5", len(seqTrace))
	}
	for _, workers := range []int{2, 4} {
		parTrace, parC := run(workers)
		if fmt.Sprint(parTrace) != fmt.Sprint(seqTrace) {
			t.Fatalf("workers=%d trace diverged: %v vs %v", workers, parTrace, seqTrace)
		}
		if parC.Executions != seqC.Executions || parC.DedupHits != seqC.DedupHits {
			t.Fatalf("workers=%d counters diverged: %+v vs %+v", workers, parC, seqC)
		}
	}
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
// instances — each with its own speculation pool — run concurrently against
// ONE matcher (shared plan/count/candidate caches) and flush into ONE
// metrics sink, as pooled engine states do in the whydbd service.
func TestConcurrentExecutorsSharedMatcher(t *testing.T) {
	mt := match.New(testGraph())
	var m Metrics
	queries := []*query.Query{
		personQuery(""), personQuery("Anna"), personQuery("Bert"),
		personQuery("Cara"), personQuery("Dora"), personQuery("Nobody"),
	}
	want := make([]int, len(queries))
	warm := mt.NewContext()
	for i, q := range queries {
		want[i] = mt.CountKeyed(warm, q, q.Key(), 100)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := NewExecutor(mt)
			for round := 0; round < 25; round++ {
				ex.Begin(Control{MaxExecuted: 100, Workers: 1 + g%3, Metrics: &m})
				for i, q := range queries {
					key := q.Key()
					if ex.Parallel() && i%ex.Width() == 0 {
						SpeculateSlice(ex, queries[i:],
							func(q *query.Query) string { return q.Key() },
							func(ctx *match.Ctx, q *query.Query) int { return mt.CountKeyed(ctx, q, q.Key(), 100) })
					}
					card, ok := ex.Execute(key, func(ctx *match.Ctx) int {
						return mt.CountKeyed(ctx, q, key, 100)
					})
					if !ok {
						errc <- fmt.Errorf("goroutine %d round %d: execution refused", g, round)
						return
					}
					if card != want[i] {
						errc <- fmt.Errorf("goroutine %d round %d query %d: count %d, want %d", g, round, i, card, want[i])
						return
					}
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
	if c := m.Snapshot(); c.Executions != goroutines*25*int64(len(queries)) {
		t.Fatalf("accumulated executions = %d, want %d", c.Executions, goroutines*25*len(queries))
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
}

// TestStopPredicateParityWithSpeculation proves the stop predicate fires at
// the same sequential point whether or not the run speculates: the trace up
// to the stop is byte-identical.
func TestStopPredicateParityWithSpeculation(t *testing.T) {
	g := testGraph()
	run := func(workers int) []int {
		ex := NewExecutor(match.New(g))
		ex.Begin(Control{
			Workers:     workers,
			MaxExecuted: 50,
			Stop: func(p Progress) bool {
				return p.Recorded > 0 && p.Last <= 3
			},
		})
		// Descending values 10, 9, 8, ... recorded until the predicate stops
		// the loop — with speculation prefetching ahead of consumption.
		nodes := make([]int, 20)
		for i := range nodes {
			nodes[i] = i
		}
		key := func(n int) string { return fmt.Sprintf("k%02d", n) }
		for i := 0; !ex.Stopped() && i < len(nodes); i++ {
			v := 10 - i
			if ex.Parallel() {
				SpeculateSlice(ex, nodes[i:], key, func(_ *match.Ctx, n int) int { return 10 - n })
			}
			ex.Execute(key(nodes[i]), constEval(v))
			ex.Record(v)
		}
		tr := append([]int(nil), ex.Trace()...)
		ex.End()
		return tr
	}
	seq := run(1)
	par := run(4)
	if fmt.Sprint(seq) != fmt.Sprint(par) {
		t.Fatalf("trace diverged: sequential %v, speculative %v", seq, par)
	}
	if want := []int{10, 9, 8, 7, 6, 5, 4, 3}; fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want stop right after recording 3", seq)
	}
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
