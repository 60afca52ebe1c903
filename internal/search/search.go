// Package search is the shared explanation-search kernel. The three
// explanation families — coarse-grained relaxation (internal/relax, Ch. 5),
// the modification tree (internal/modtree, Ch. 6), and subgraph/MCS
// explanations (internal/mcs, Ch. 4) — are all the same loop: pop the best
// candidate from a deterministic frontier, execute it against the matcher
// under a count cap, dedup on the canonical key, account a budget, record a
// trace. This package implements that loop's machinery once:
//
//   - Control: the shared option block (cancellation context, execution
//     budget, count cap, metrics sink) the three search Options embed.
//   - Executor: the budgeted executor — executed-key dedup, budget
//     accounting, the one "stop before the next execution" cancellation
//     check, and the per-run trace recorder.
//   - Frontier: the deterministic priority frontier, generic over the
//     strategy's node type, with an insertion-sequence tie-break that makes
//     the pop sequence a total order.
//
// Every search runs on its caller's goroutine and starts none. The packages
// on top shrink to strategy definitions: candidate generation and scoring. A
// new search strategy plugs in by defining a node type, a strict order for
// the frontier, a key function, and an eval function; see README.md
// ("Search-kernel architecture").
package search

import (
	"context"
	"sync/atomic"

	"repro/internal/match"
	"repro/internal/query"
)

// Control is the shared option block embedded by relax.Options,
// modtree.Options, and mcs.Options. Its fields are promoted, so the knob
// names (opts.Ctx, opts.MaxExecuted, opts.CountCap) read the same on every
// search's Options.
type Control struct {
	// Workers is inert: a search runs on its caller's goroutine whatever it
	// says. It stays only because the benchmark module sets it.
	Workers int
	// Ctx, when non-nil, cancels the search: it stops before the next
	// candidate execution once Ctx is done and returns the partial result,
	// so an abandoned request (HTTP client gone, deadline hit) stops burning
	// the matcher within one candidate execution.
	Ctx context.Context
	// MaxExecuted is the execution budget: the search stops after this many
	// candidate executions (0 = the embedding package's default).
	MaxExecuted int
	// CountCap bounds result counting per candidate execution (0 = the
	// embedding package's default or derivation).
	CountCap int
	// Metrics, when non-nil, accumulates the run's kernel counters
	// (executions, dedup hits) at the end of the search.
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
	// SpecBudget is inert: nothing reads it. It stays only because the
	// benchmark module sets it.
	SpecBudget *SpecPool
	// OnImprovement, when non-nil, is invoked each time the strategy's
	// incumbent explanation strictly improves, with the run's Progress and
	// the new incumbent. It runs on the search goroutine; a slow callback
	// stalls the search.
	OnImprovement func(Progress, Candidate)
}

// SpecPool is inert: nothing reads one. It and NewSpecPool stay only because
// the benchmark module compiles against them.
type SpecPool struct{}

// NewSpecPool returns an inert pool; its arguments are ignored.
func NewSpecPool(totalSlots, perSlot int, free func() int) *SpecPool { return &SpecPool{} }

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
// predicate over it stops a run at the same point every time.
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
}

// Metrics accumulates kernel counters across runs. It is safe for concurrent
// use: many pooled searchers flush into one Metrics.
type Metrics struct {
	executions atomic.Int64
	dedupHits  atomic.Int64
}

// Snapshot returns the accumulated counters.
func (m *Metrics) Snapshot() Counters {
	return Counters{Executions: m.executions.Load(), DedupHits: m.dedupHits.Load()}
}

// add merges one run's counters.
func (m *Metrics) add(c Counters) {
	m.executions.Add(c.Executions)
	m.dedupHits.Add(c.DedupHits)
}

// Eval computes the deterministic cardinality of one candidate on the
// executor's matching context.
type Eval func(*match.Ctx) int

// Executor is the budgeted explanation-search executor. It owns, in one
// place, what relax/modtree/mcs used to copy: the executed-key dedup map,
// count-cap'd execution with budget accounting, the "stop before the next
// execution" cancellation contract, the execution trace, and the kernel
// counters.
//
// An Executor is reusable across runs (Begin/End) but confined to one
// goroutine.
type Executor struct {
	mctx *match.Ctx // the execution context, reused across runs

	executed map[string]int // executed-key dedup: key → cardinality
	trace    []int          // per-run trace, storage reused across runs
	last     int            // latest recorded trace value (Progress.Last)
	ctrl     Control

	executions int
	dedupHits  int
}

// NewExecutor returns an executor over the matcher, with its own matching
// context.
func NewExecutor(m *match.Matcher) *Executor {
	return &Executor{mctx: m.NewContext(), executed: make(map[string]int)}
}

// Begin starts one search run under ctrl. The caller's fill() must have
// resolved MaxExecuted (and CountCap, if it uses it) to concrete values.
// Per-run state — dedup map, trace, counters — is reset; map and slice
// storage are retained across runs.
func (e *Executor) Begin(ctrl Control) {
	e.ctrl = ctrl
	clear(e.executed)
	e.trace = e.trace[:0]
	e.last = 0
	e.executions, e.dedupHits = 0, 0
}

// End closes the run, flushing the kernel counters into Control.Metrics when
// one was supplied.
func (e *Executor) End() {
	if e.ctrl.Metrics != nil {
		e.ctrl.Metrics.add(e.Counters())
	}
}

// Counters returns this run's kernel counters.
func (e *Executor) Counters() Counters {
	return Counters{Executions: int64(e.executions), DedupHits: int64(e.dedupHits)}
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
// down), then eval runs on the executor's context; the value is recorded
// under key for dedup and counted against the budget.
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
// recording.
func (e *Executor) ExecuteAlways(key string, eval Eval) int {
	return e.execute(key, eval)
}

func (e *Executor) execute(key string, eval Eval) int {
	if e.ctrl.Probe != nil {
		e.ctrl.Probe(e.executions)
	}
	card := eval(e.mctx)
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
// incumbent. Strategies call it immediately after the incumbent strictly
// improves, so the callback sequence is deterministic. No-op without a
// callback.
func (e *Executor) Improved(c Candidate) {
	if e.ctrl.OnImprovement != nil {
		e.ctrl.OnImprovement(e.Progress(), c)
	}
}

// ResetDedup clears the executed/visited keys mid-run while keeping budget,
// counters and trace: mcs solves each weakly connected component with a
// fresh visited set under one shared traversal budget.
func (e *Executor) ResetDedup() { clear(e.executed) }
