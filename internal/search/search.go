// Package search is the shared explanation-search kernel. The three
// explanation families — coarse-grained relaxation (internal/relax, Ch. 5),
// the modification tree (internal/modtree, Ch. 6), and subgraph/MCS
// explanations (internal/mcs, Ch. 4) — are all the same loop: pop the best
// candidate from a deterministic frontier, execute it against the matcher
// under a count cap, dedup on the canonical key, account a budget, record a
// trace. This package implements that loop's machinery once:
//
//   - Control: the shared option block (workers, cancellation context,
//     execution budget, count cap, metrics sink) the three search Options
//     embed.
//   - Executor: the budgeted executor — executed-key dedup, budget
//     accounting, the one "stop before the next execution" cancellation
//     check, speculation consumption, and the per-run trace recorder.
//   - Frontier: the deterministic priority frontier, generic over the
//     strategy's node type, with an insertion-sequence tie-break that makes
//     the pop sequence a total order.
//   - SpeculateTop / SpeculateSlice: the speculation engine — prefetch-ahead
//     candidate evaluation on a worker pool with byte-identical-to-sequential
//     semantics (results are deterministic and consumed by key, so a
//     precomputed value is indistinguishable from an inline execution).
//
// The packages on top shrink to strategy definitions: candidate generation
// and scoring. A new search strategy plugs in by defining a node type, a
// strict order for the frontier, a key function, and an eval function; see
// README.md ("Search-kernel architecture").
package search

import (
	"context"
	"sync/atomic"

	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/query"
)

// Control is the shared option block embedded by relax.Options,
// modtree.Options, and mcs.Options. Its fields are promoted, so the
// historical knob names (opts.Workers, opts.Ctx, opts.MaxExecuted,
// opts.CountCap) keep working on every search's Options.
type Control struct {
	// Workers sets the candidate-evaluation worker count (0 or 1 =
	// sequential). Extra workers only speculate ahead of the sequential
	// search; results, ranks, counters, and traces are byte-identical to the
	// sequential run — only wall-clock time changes.
	Workers int
	// Ctx, when non-nil, cancels the search: it stops before the next
	// candidate execution once Ctx is done and returns the partial result,
	// so an abandoned request (HTTP client gone, deadline hit) stops burning
	// the matcher and worker pool within one candidate execution.
	Ctx context.Context
	// MaxExecuted is the execution budget: the search stops after this many
	// candidate executions (0 = the embedding package's default).
	MaxExecuted int
	// CountCap bounds result counting per candidate execution (0 = the
	// embedding package's default or derivation).
	CountCap int
	// Metrics, when non-nil, accumulates the run's kernel counters
	// (executions, dedup hits, speculation) at the end of the search.
	Metrics *Metrics
	// Stop, when non-nil, is the kernel-level early-stop predicate: it is
	// consulted by Stopped() alongside the budget and cancellation checks —
	// before the next candidate execution — with the run's Progress. It must
	// be cheap and idempotent (strategies poll Stopped in loop conditions).
	// The whydbd brownout controller uses it to end a degraded search once
	// the recorded best-so-far value is within ε of the goal, trading bounded
	// explanation quality for tail latency.
	Stop func(Progress) bool
	// Probe, when non-nil, runs on the search goroutine immediately before
	// every candidate execution with the number of executions completed so
	// far — the kernel's fault-injection and instrumentation hook point. A
	// probe that cancels Ctx stops the search before the next execution,
	// exactly like a client cancellation.
	Probe func(executions int)
	// SpecBudget, when non-nil, gates speculative evaluations on a shared
	// (typically server-wide) token pool: every prefetch wave acquires one
	// token per candidate and returns them when the wave completes, so
	// speculation across concurrent searches never exceeds what the server's
	// free admission slots can absorb. Denied tokens silently shrink (or
	// skip) the wave — the sequential loop and its outputs are unchanged,
	// only less work is prefetched. Nil means ungated (full speculation).
	SpecBudget *SpecPool
	// OnImprovement, when non-nil, is invoked from the deterministic
	// sequential loop each time the strategy's incumbent explanation strictly
	// improves, with the run's Progress and the new incumbent. Because only
	// the sequential loop fires it (speculation merely precomputes values),
	// the callback sequence is byte-identical at any worker count. It runs on
	// the search goroutine; a slow callback stalls the search.
	OnImprovement func(Progress, Candidate)
}

// Candidate is an incumbent-explanation snapshot handed to
// Control.OnImprovement: the improved candidate in the strategy's own
// currency. Query is the rewritten query (relax/modtree) or the maximal
// common subquery so far (mcs, with Ops nil); Distance is the strategy's
// cardinality distance to the goal, monotone non-increasing across the
// callbacks of one run.
type Candidate struct {
	Query       *query.Query
	Ops         []query.Op
	Cardinality int
	Distance    int
}

// Progress is the run-state snapshot handed to Control.Stop: how many
// candidate executions were spent, how many trace values were recorded, and
// the latest recorded value (meaningful only when Recorded > 0 — best-so-far
// cardinality distance for the modification tree, executed cardinality for
// the coarse relaxation). It carries only deterministic search state, so a
// predicate over it stops a speculating run at exactly the point it stops
// the sequential run.
type Progress struct {
	Executions int
	Recorded   int
	Last       int
}

// Done reports whether a cancellation context was supplied and fired — the
// kernel's single ctx-polling helper.
func (c Control) Done() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// Counters is a snapshot of the kernel's observability counters.
type Counters struct {
	// Executions counts candidate executions — the §4.5/§5.5.1/§6.4.2 cost
	// currency across all three explanation families.
	Executions int64
	// DedupHits counts candidates skipped (or answered from the executed
	// map) because an equivalent candidate already ran this search.
	DedupHits int64
	// Speculated counts candidate evaluations launched ahead of the
	// sequential loop on the worker pool.
	Speculated int64
	// SpecWaste counts speculative evaluations the sequential loop never
	// consumed — parallelism overhead that bought no wall-clock time.
	SpecWaste int64
}

// Metrics accumulates kernel counters across runs. It is safe for concurrent
// use: many pooled searchers flush into one Metrics.
type Metrics struct {
	executions atomic.Int64
	dedupHits  atomic.Int64
	speculated atomic.Int64
	specWaste  atomic.Int64
}

// Snapshot returns the accumulated counters.
func (m *Metrics) Snapshot() Counters {
	return Counters{
		Executions: m.executions.Load(),
		DedupHits:  m.dedupHits.Load(),
		Speculated: m.speculated.Load(),
		SpecWaste:  m.specWaste.Load(),
	}
}

// add merges one run's counters.
func (m *Metrics) add(c Counters) {
	m.executions.Add(c.Executions)
	m.dedupHits.Add(c.DedupHits)
	m.speculated.Add(c.Speculated)
	m.specWaste.Add(c.SpecWaste)
}

// Eval computes the deterministic cardinality of one candidate on a matching
// context. Determinism is what makes speculation invisible: evaluating a
// candidate early (on a pool worker's context) yields the same value the
// sequential loop would have computed inline.
type Eval func(*match.Ctx) int

// Executor is the budgeted explanation-search executor. It owns, in one
// place, what relax/modtree/mcs used to copy: the executed-key dedup map,
// count-cap'd execution with budget accounting, the "stop before the next
// execution" cancellation contract, consumption of speculated results, the
// execution trace, and the kernel counters.
//
// An Executor is reusable across runs (Begin/End) but confined to one
// goroutine; its worker pool is private and its results are consumed on the
// calling goroutine only.
type Executor struct {
	m    *match.Matcher
	mctx *match.Ctx // the sequential execution context, reused across runs

	pool     *parallel.Pool[*match.Ctx] // lazily built, kept across runs
	parallel bool                       // this run speculates (Workers > 1)
	wave     parallel.Wave              // speculation scratch
	spec     map[string]int             // speculated results by key

	executed map[string]int // executed-key dedup: key → cardinality
	trace    []int          // per-run trace, storage reused across runs
	last     int            // latest recorded trace value (Progress.Last)
	ctrl     Control

	executions int
	dedupHits  int
	speculated int
	consumed   int
}

// NewExecutor returns an executor over the matcher, with its own matching
// context.
func NewExecutor(m *match.Matcher) *Executor {
	return &Executor{m: m, mctx: m.NewContext(), executed: make(map[string]int)}
}

// Begin starts one search run under ctrl. The caller's fill() must have
// resolved MaxExecuted (and CountCap, if it uses it) to concrete values.
// Per-run state — dedup map, speculated results, trace, counters — is reset;
// the worker pool and map/slice storage are retained across runs.
func (e *Executor) Begin(ctrl Control) {
	e.ctrl = ctrl
	clear(e.executed)
	e.trace = e.trace[:0]
	e.last = 0
	e.executions, e.dedupHits, e.speculated, e.consumed = 0, 0, 0, 0
	e.parallel = ctrl.Workers > 1
	if e.parallel {
		if e.pool == nil || e.pool.Workers() != ctrl.Workers {
			e.pool = parallel.NewPool(ctrl.Workers, e.m.NewContext)
		}
		if e.spec == nil {
			e.spec = make(map[string]int)
		} else {
			clear(e.spec)
		}
	}
	// Attach the run's request context to every execution context (the
	// sequential one and each pool worker's) so a wait on another request's
	// plan or count computation ends with this run's request. End detaches.
	e.mctx.SetRequest(ctrl.Ctx)
	if e.parallel {
		for _, c := range e.pool.States() {
			c.SetRequest(ctrl.Ctx)
		}
	}
}

// End closes the run, flushing the kernel counters — leftover speculated
// results count as waste — into Control.Metrics when one was supplied.
func (e *Executor) End() {
	e.mctx.SetRequest(nil)
	if e.parallel {
		for _, c := range e.pool.States() {
			c.SetRequest(nil)
		}
	}
	c := e.Counters()
	if e.ctrl.Metrics != nil {
		e.ctrl.Metrics.add(c)
	}
	// Feed the run's speculation outcome into the shared pool's waste
	// steering: a workload whose prefetches keep missing gets its grant
	// fraction cut even while the server idles.
	e.ctrl.SpecBudget.NoteOutcome(c.Speculated, c.SpecWaste)
}

// Counters returns this run's kernel counters.
func (e *Executor) Counters() Counters {
	return Counters{
		Executions: int64(e.executions),
		DedupHits:  int64(e.dedupHits),
		Speculated: int64(e.speculated),
		SpecWaste:  int64(e.speculated - e.consumed),
	}
}

// Parallel reports whether this run speculates on a worker pool.
func (e *Executor) Parallel() bool { return e.parallel }

// Width is the effective worker count of this run: the pool width when
// speculating, 1 for a sequential run.
func (e *Executor) Width() int {
	if e.parallel {
		return e.pool.Workers()
	}
	return 1
}

// Stopped reports whether the run must stop: execution budget exhausted, the
// cancellation context fired, or the early-stop predicate holds. This is the
// kernel's single stop-before-the-next-execution check.
func (e *Executor) Stopped() bool {
	if e.executions >= e.ctrl.MaxExecuted || e.ctrl.Done() {
		return true
	}
	return e.ctrl.Stop != nil && e.ctrl.Stop(e.Progress())
}

// Progress returns the run-state snapshot the Stop predicate sees.
func (e *Executor) Progress() Progress {
	return Progress{Executions: e.executions, Recorded: len(e.trace), Last: e.last}
}

// Remaining returns the remaining execution budget.
func (e *Executor) Remaining() int { return e.ctrl.MaxExecuted - e.executions }

// Executions counts the candidate executions so far this run.
func (e *Executor) Executions() int { return e.executions }

// Seen reports whether key was already executed (or visited) this run,
// counting a dedup hit when it was.
func (e *Executor) Seen(key string) bool {
	if _, ok := e.executed[key]; ok {
		e.dedupHits++
		return true
	}
	return false
}

// Cached returns the executed value of key, counting a dedup hit on success.
func (e *Executor) Cached(key string) (int, bool) {
	card, ok := e.executed[key]
	if ok {
		e.dedupHits++
	}
	return card, ok
}

// Visit claims a candidate key before execution, reporting whether it was
// new; a repeat counts as a dedup hit. The claim shares the executed map (an
// execution that follows fills in the real value), which is what mcs's
// visited-state set is: a state is claimed when the traversal reaches it,
// whether or not the budget still allows executing it.
func (e *Executor) Visit(key string) bool {
	if _, ok := e.executed[key]; ok {
		e.dedupHits++
		return false
	}
	e.executed[key] = -1
	return true
}

// Execute runs one candidate execution under the kernel contract: budget and
// cancellation are checked first (ok == false means the search must wind
// down), a speculated result is consumed when available, otherwise eval runs
// inline on the executor's context; the value is recorded under key for
// dedup and counted against the budget.
func (e *Executor) Execute(key string, eval Eval) (card int, ok bool) {
	if e.Stopped() {
		return 0, false
	}
	return e.execute(key, eval), true
}

// ExecuteAlways is Execute without the budget/cancellation guard, for
// strategies whose loop gates on Stopped at a coarser granularity and whose
// baseline executions run regardless of remaining budget (mcs executes the
// isolated-vertex baseline of every component even when the shared traversal
// budget is already spent — see mcs.grow). An empty key skips dedup
// recording and speculation consumption.
func (e *Executor) ExecuteAlways(key string, eval Eval) int {
	return e.execute(key, eval)
}

func (e *Executor) execute(key string, eval Eval) int {
	if e.ctrl.Probe != nil {
		e.ctrl.Probe(e.executions)
	}
	card, done := 0, false
	if key != "" && e.parallel {
		if card, done = e.spec[key]; done {
			delete(e.spec, key)
			e.consumed++
		}
	}
	if !done {
		card = eval(e.mctx)
	}
	if key != "" {
		e.executed[key] = card
	}
	e.executions++
	return card
}

// Record appends one value to the run's trace (executed cardinalities for
// relax, best-so-far distances for modtree — the convergence series feeding
// core.Report.Trace). The latest value is also exposed to the early-stop
// predicate as Progress.Last.
func (e *Executor) Record(v int) {
	e.trace = append(e.trace, v)
	e.last = v
}

// Trace returns the run's trace. The slice is owned by the executor's
// reusable scratch: it stays valid until the next Begin.
func (e *Executor) Trace() []int { return e.trace }

// Improving reports whether an improvement callback is armed, so strategies
// can skip building candidate snapshots nobody will observe.
func (e *Executor) Improving() bool { return e.ctrl.OnImprovement != nil }

// Improved fires Control.OnImprovement with the run's Progress and the new
// incumbent. Strategies call it from the sequential loop only, immediately
// after the incumbent strictly improves, so the callback sequence is
// deterministic and independent of the worker count. No-op without a
// callback.
func (e *Executor) Improved(c Candidate) {
	if e.ctrl.OnImprovement != nil {
		e.ctrl.OnImprovement(e.Progress(), c)
	}
}

// ResetDedup clears the executed/visited keys mid-run while keeping budget,
// counters, trace, and pools: mcs solves each weakly connected component
// with a fresh visited set under one shared traversal budget. Speculated
// results are discarded with it (their keys are component-relative); the
// unconsumed ones count as waste.
func (e *Executor) ResetDedup() {
	clear(e.executed)
	if e.spec != nil {
		clear(e.spec)
	}
}

// Scatter runs f(ctx, i) for every i in [0, n) on the worker pool — inline
// when the run is sequential — for order-independent per-candidate work like
// scoring children of one expansion. Outputs must be written to disjoint
// locations per index.
func (e *Executor) Scatter(n int, f func(*match.Ctx, int)) {
	if !e.parallel {
		for i := 0; i < n; i++ {
			f(e.mctx, i)
		}
		return
	}
	e.pool.Each(n, func(ctx *match.Ctx, i int) { f(ctx, i) })
}

// speculationBudget returns how many novel candidates a prefetch wave may
// evaluate: one pool width, clamped to the remaining execution budget so
// speculation never outruns what the sequential search could execute.
func (e *Executor) speculationBudget() int {
	budget := e.Remaining()
	if w := e.pool.Workers(); budget > w {
		budget = w
	}
	return budget
}

// runWave evaluates the collected wave on the pool and merges the results
// into the speculation map. Waves of fewer than two jobs are dropped — there
// is nothing to overlap with the sequential loop.
func (e *Executor) runWave(compute func(*match.Ctx, int) int) {
	n := e.wave.Len()
	if n < 2 {
		return
	}
	parallel.RunWave(e.pool, &e.wave, e.spec, compute)
	e.speculated += n
}

// SpeculateSlice speculatively evaluates the upcoming candidates of a
// sequential consumption loop — modtree's next child wave, mcs's frontier
// extensions. Candidates are considered in order; keys already executed (or
// visited, or already speculated) are skipped, as is a node whose key is
// empty (a modtree child whose operation turned out inapplicable), and the
// wave is capped at one pool width and the remaining budget. key is called
// on the candidates considered only, so it may derive them lazily. No-op on
// sequential runs.
func SpeculateSlice[N any](e *Executor, nodes []N, key func(N) string, eval func(*match.Ctx, N) int) {
	if !e.parallel {
		return
	}
	// The wave is bounded by the shared speculation budget (one token per
	// prefetched candidate, nil pool = everything granted): under fleet load
	// the pool grants nothing and the run silently stays sequential.
	granted := e.ctrl.SpecBudget.Acquire(e.speculationBudget())
	if granted < 2 {
		e.ctrl.SpecBudget.Release(granted)
		return
	}
	e.wave.Reset()
	for i, n := range nodes {
		if e.wave.Len() >= granted {
			break
		}
		k := key(n)
		if _, seen := e.executed[k]; seen || k == "" {
			continue
		}
		e.wave.Add(k, i, e.spec)
	}
	e.runWave(func(ctx *match.Ctx, i int) int { return eval(ctx, nodes[i]) })
	e.ctrl.SpecBudget.Release(granted)
}

// SpeculateTop speculatively evaluates the frontier's best candidates —
// relax's top-W prefetch. Up to one pool width of nodes is popped and pushed
// back with their insertion sequence intact; the frontier's total order
// makes the round trip invisible to the sequential search. Novel keys are
// evaluated on the pool, capped at the remaining budget. No-op on
// sequential runs.
func SpeculateTop[N any](e *Executor, f *Frontier[N], key func(N) string, eval func(*match.Ctx, N) int) {
	if !e.parallel {
		return
	}
	want := e.pool.Workers()
	if r := e.Remaining(); r < want {
		want = r
	}
	// One shared-pool token per prefetched candidate (nil pool = everything
	// granted). Under a zero grant the frontier round trip below would be a
	// no-op, so skip it entirely — byte-identical either way.
	granted := e.ctrl.SpecBudget.Acquire(want)
	if granted < 2 {
		e.ctrl.SpecBudget.Release(granted)
		return
	}
	width := e.pool.Workers()
	f.batch = f.batch[:0]
	e.wave.Reset()
	for len(f.batch) < width && f.Len() > 0 {
		r := f.popRanked()
		f.batch = append(f.batch, r)
		if e.wave.Len() >= granted {
			continue // keep popping the full batch, just don't evaluate more
		}
		k := key(r.node)
		if _, seen := e.executed[k]; seen {
			continue
		}
		e.wave.Add(k, len(f.batch)-1, e.spec)
	}
	e.runWave(func(ctx *match.Ctx, i int) int { return eval(ctx, f.batch[i].node) })
	e.ctrl.SpecBudget.Release(granted)
	for _, r := range f.batch {
		f.pushRanked(r)
	}
	clear(f.batch) // drop the scratch's node references until the next wave
}
