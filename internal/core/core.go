// Package core assembles the thesis' debugging layer into one engine: given
// a pattern-matching query and an expected cardinality interval, it decides
// which why-query applies (why-empty, why-so-few, why-so-many — the holistic
// support of §3.1.3), produces both explanation kinds — the subgraph-based
// explanation of Chapter 4 and the modification-based explanations of
// Chapters 5–6 — and scores every rewriting on the three comparison levels
// of Chapter 3 (syntactic, cardinality, result distance).
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/stats"
)

// Engine is the why-query engine over one data graph.
//
// An Engine is safe for concurrent use: the matcher and statistics collector
// are concurrency-safe by construction, and every Explain call draws a
// private search state (relaxation rewriter, modification-tree searcher,
// matching context) from an internal pool, so a long-running service can
// serve Explain requests from many goroutines against one loaded graph.
// SetWorkers is the exception: call it before sharing the engine.
type Engine struct {
	g       *graph.Graph
	m       *match.Matcher
	st      *stats.Collector
	domain  *stats.Domain
	states  cache.FreeList[*explainState] // one per in-flight Explain
	workers int

	// Search-kernel counters, one sink per explanation family. Every search
	// run — from any pooled explainState — flushes its executions, dedup
	// hits, and speculation counters here; GET /v1/stats reads them out.
	kRelax   search.Metrics
	kModtree search.Metrics
	kMCS     search.Metrics
}

// explainState is the per-call mutable search state of Explain. The three
// searchers each own a matching context and (lazily) a worker pool, none of
// which tolerate concurrent use, so states are pooled and checked out for
// the duration of one explanation.
type explainState struct {
	mc  *mcs.Searcher
	rw  *relax.Rewriter
	mt  *modtree.Searcher
	ctx *match.Ctx

	// Scoring scratch: the original's and one rewriting's result samples in
	// row form, and the result-distance kernel's matrix and solver arrays.
	// It grows to ResultSample rows × pattern width (squared, for the
	// matrix) and is kept only at the default sample size.
	orig, cand match.Rows
	score      metrics.ResultScratch
}

// NewEngine builds an engine (matcher, statistics, domain catalog) over g.
// Explanation searches run on GOMAXPROCS workers by default; see SetWorkers.
func NewEngine(g *graph.Graph) *Engine {
	// match.New freezes the graph; the domain catalog is counted from the
	// frozen layer's attribute columns, so it comes second.
	m := match.New(g)
	return newEngine(g, m, stats.New(m), stats.BuildDomain(g, 16), runtime.GOMAXPROCS(0))
}

func newEngine(g *graph.Graph, m *match.Matcher, st *stats.Collector, domain *stats.Domain, workers int) *Engine {
	e := &Engine{g: g, m: m, st: st, domain: domain, workers: workers}
	e.states.New = func() *explainState {
		return &explainState{mc: mcs.New(m, st), rw: relax.New(m, st), mt: modtree.New(m, st), ctx: m.NewContext()}
	}
	return e
}

// Successor publishes one batch of writes as the next epoch's engine. g must
// be a graph.Fork of e's graph with the batch applied and nothing else done
// to it; Successor seals it and derives everything above it from e — CSR and
// attribute index (graph.Seal), domain catalog (stats.Domain.Derive), and the
// candidate, count and statistics caches less the entries the batch may have
// changed (match.NewSuccessor, stats.NewSuccessor) — so the cost follows the
// batch, not the graph. The result answers every query exactly as
// NewEngine(g) would. e is left untouched and keeps serving the requests
// pinned to it; the successor inherits its worker count and starts its
// counters at zero.
func (e *Engine) Successor(g *graph.Graph) *Engine {
	d := g.Seal()
	m := match.NewSuccessor(e.m, g, d)
	return newEngine(g, m, stats.NewSuccessor(m, e.st, d), e.domain.Derive(g, d), e.workers)
}

// SetWorkers sets the worker count the explanation searches (relaxation,
// modification tree, MCS) evaluate query candidates with. Values below one
// reset to the default, GOMAXPROCS. Parallelism never changes explanations:
// every search is byte-identical to its sequential run; only wall-clock time
// shrinks. Not safe to call concurrently with Explain — configure the engine
// before serving.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// Workers reports the engine's explanation-search worker count.
func (e *Engine) Workers() int { return e.workers }

// Graph returns the engine's data graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Matcher returns the engine's pattern matcher.
func (e *Engine) Matcher() *match.Matcher { return e.m }

// Stats returns the engine's statistics collector.
func (e *Engine) Stats() *stats.Collector { return e.st }

// Domain returns the engine's attribute-value catalog.
func (e *Engine) Domain() *stats.Domain { return e.domain }

// KernelCounters reports the search kernel's accumulated counters per
// explanation family ("relax", "modtree", "mcs"): candidate executions,
// dedup hits, speculative evaluations launched, and speculative waste.
func (e *Engine) KernelCounters() map[string]search.Counters {
	return map[string]search.Counters{
		"relax":   e.kRelax.Snapshot(),
		"modtree": e.kModtree.Snapshot(),
		"mcs":     e.kMCS.Snapshot(),
	}
}

// Options tunes Explain.
type Options struct {
	// Expected is the wanted cardinality interval; zero means "at least
	// one result" (why-empty debugging).
	Expected metrics.Interval
	// MaxRewritings caps reported modification-based explanations (0 = 3).
	MaxRewritings int
	// FineGrained switches the rewriting engine: false = the Chapter 5
	// coarse-grained relaxation (why-empty only), true = the Chapter 6
	// TRAVERSESEARCHTREE (all problems). By default the engine picks
	// coarse-grained for why-empty and fine-grained otherwise (§1.1).
	FineGrained *bool
	// AllowTopology enables topology-changing rewritings.
	AllowTopology bool
	// EdgeWeights is the user's per-edge relevance for the subgraph-based
	// explanation's traversal (§4.4).
	EdgeWeights map[int]float64
	// Prefs is the learned user-preference model for coarse rewriting
	// (§5.4).
	Prefs *relax.PreferenceModel
	// Budget caps candidate executions per explanation engine (0 = 300).
	Budget int
	// ResultSample bounds the result graphs enumerated per query when
	// computing result distances (0 = 100).
	ResultSample int
	// Workers overrides the engine's worker count for this explanation
	// (0 = use the engine's setting).
	Workers int
	// Epsilon, when > 0, arms the ε-optimal early stop on the fine-grained
	// search: the modification tree may stop as soon as its best-so-far
	// cardinality distance is ≤ Epsilon, instead of exhausting the budget.
	// The predicate reads only deterministic search state, so a speculating
	// run stops byte-identically to the sequential run. This is whydbd's
	// degraded (brownout) mode.
	Epsilon int
	// Probe, when non-nil, is forwarded to every search kernel as
	// Control.Probe: it runs before each candidate execution with the
	// execution count — whydbd's fault-injection hook.
	Probe func(executions int)
	// SpecBudget, when non-nil, is forwarded to every search kernel as
	// Control.SpecBudget: the shared admission-aware speculation-token pool
	// that throttles prefetch waves while the server is loaded. Outputs are
	// unchanged — speculation is byte-identical by construction — only the
	// amount of prefetched work varies.
	SpecBudget *search.SpecPool
	// OnImprovement, when non-nil, is invoked on the calling goroutine each
	// time an explanation family's incumbent strictly improves — the anytime
	// hook behind whydbd's /v1/explain/stream. The callback sequence is fired
	// from the kernel's deterministic sequential progress, so it is identical
	// at any Workers setting. Distances are monotone non-increasing within
	// one Family; families use different distance currencies and must not be
	// compared.
	OnImprovement func(Improvement)
}

// Improvement is one anytime-search progress report: a new incumbent
// explanation plus the quality bound at the moment it was found.
type Improvement struct {
	// Family names the explanation search that improved: "mcs", "relax", or
	// "modtree".
	Family string
	// Query is the incumbent: the rewritten query (relax/modtree, with Ops
	// the modification sequence) or the maximal common subquery so far (mcs,
	// Ops nil).
	Query *query.Query
	// Ops is the modification sequence from the original query (nil for mcs).
	Ops []query.Op
	// Cardinality is the incumbent's (possibly capped) result size.
	Cardinality int
	// Distance is the incumbent's cardinality distance to the expected
	// interval — the monotone non-increasing quality bound.
	Distance int
	// Syntactic is the incumbent's syntactic distance to the original query.
	Syntactic float64
	// Executed counts the family's candidate executions so far; Remaining is
	// what is left of its execution budget.
	Executed  int
	Remaining int
}

func (o *Options) fill() {
	if o.Expected == (metrics.Interval{}) {
		o.Expected = metrics.AtLeastOne
	}
	if o.MaxRewritings == 0 {
		o.MaxRewritings = 3
	}
	if o.Budget == 0 {
		o.Budget = 300
	}
	if o.ResultSample == 0 {
		o.ResultSample = defaultResultSample
	}
}

// defaultResultSample is Options.ResultSample's default, and the sample size
// up to which a pooled explainState keeps its scoring scratch.
const defaultResultSample = 100

// Rewriting is a modification-based explanation scored on the three levels
// of Chapter 3.
type Rewriting struct {
	// Query is the rewritten query.
	Query *query.Query
	// Ops is the modification sequence from the original query.
	Ops []query.Op
	// Cardinality is the rewriting's result size (capped by the engine).
	Cardinality int
	// Syntactic is the syntactic distance to the original query (§3.2.2).
	Syntactic float64
	// CardinalityDistance is the distance to the expected interval
	// (§3.2.3).
	CardinalityDistance int
	// ResultDistance compares the rewriting's results with the original's
	// (§3.2.4); 1 when the original was empty.
	ResultDistance float64
}

// Report is the full explanation of an unexpected result size.
type Report struct {
	// Problem classifies the original query's result size.
	Problem metrics.ProblemKind
	// Cardinality is the original query's result size.
	Cardinality int
	// Expected is the interval the user wanted.
	Expected metrics.Interval
	// Subgraph is the subgraph-based explanation (nil when satisfied).
	Subgraph *mcs.Explanation
	// Rewritings are the modification-based explanations, ranked by
	// cardinality distance, then syntactic distance, then result distance.
	Rewritings []Rewriting
	// FineGrained reports which rewriting engine ran: true for the Chapter 6
	// TRAVERSESEARCHTREE, false for the Chapter 5 coarse-grained relaxation.
	FineGrained bool
	// Executed counts the rewriting search's candidate executions — the
	// §5.5.1/§6.4.2 cost currency (MCS traversals are reported separately in
	// Subgraph.Traversals).
	Executed int
	// Trace is the rewriting search's convergence series: executed-candidate
	// cardinalities for the coarse-grained relaxation (§5.5.2), best-so-far
	// cardinality distances for TRAVERSESEARCHTREE (§6.4.2). The slice is
	// owned by the report.
	Trace []int
}

// Explain debugs the query against the expected cardinality interval.
func (e *Engine) Explain(q *query.Query, opts Options) (*Report, error) {
	return e.ExplainCtx(context.Background(), q, opts)
}

// ExplainCtx is Explain under a cancellation context: when ctx is cancelled
// (client gone, deadline hit), the explanation searches stop within one
// candidate execution and the context's error is returned — the partial
// explanation is discarded. This is the entry point of the whydbd service
// layer, where an abandoned request must stop burning the worker pool.
func (e *Engine) ExplainCtx(ctx context.Context, q *query.Query, opts Options) (*Report, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid query: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.fill()
	st := e.states.Get()
	// The request context rides on the matching context so the matcher's
	// count delegate (sharded counting) sees per-request state; detach before
	// the state returns to the pool.
	st.ctx.SetRequest(ctx)
	defer func() {
		st.ctx.SetRequest(nil)
		if opts.ResultSample > defaultResultSample {
			st.orig, st.cand, st.score = match.Rows{}, match.Rows{}, metrics.ResultScratch{}
		}
		e.states.Put(st)
	}()
	countCap := 0
	if opts.Expected.Upper > 0 {
		countCap = opts.Expected.Upper * 4
	}
	card := e.m.CountCtx(st.ctx, q, countCap)
	rep := &Report{
		Problem:     opts.Expected.Classify(card),
		Cardinality: card,
		Expected:    opts.Expected,
	}
	if rep.Problem == metrics.Satisfied {
		return rep, nil
	}

	// Subgraph-based explanation (Chapter 4).
	workers := opts.Workers
	if workers <= 0 {
		workers = e.workers
	}
	// improve adapts the kernel's per-family improvement callback to the
	// engine-level Improvement, stamping the family and its budget arithmetic.
	improve := func(family string) func(search.Progress, search.Candidate) {
		if opts.OnImprovement == nil {
			return nil
		}
		return func(p search.Progress, c search.Candidate) {
			opts.OnImprovement(Improvement{
				Family:      family,
				Query:       c.Query,
				Ops:         c.Ops,
				Cardinality: c.Cardinality,
				Distance:    c.Distance,
				Syntactic:   metrics.SyntacticDistance(q, c.Query),
				Executed:    p.Executions,
				Remaining:   opts.Budget - p.Executions,
			})
		}
	}
	sub := st.mc.BoundedMCS(q, opts.Expected, mcs.Options{
		Control: search.Control{
			MaxExecuted:   opts.Budget,
			Workers:       workers,
			Ctx:           ctx,
			Metrics:       &e.kMCS,
			Probe:         opts.Probe,
			SpecBudget:    opts.SpecBudget,
			OnImprovement: improve("mcs"),
		},
		UseWCC:      true,
		EdgeWeights: opts.EdgeWeights,
	})
	rep.Subgraph = &sub
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Modification-based explanations (Chapters 5–6).
	fine := rep.Problem != metrics.WhyEmpty
	if opts.FineGrained != nil {
		fine = *opts.FineGrained
	}
	rep.FineGrained = fine
	var candidates []Rewriting
	if fine {
		// The modification tree records its best-so-far cardinality distance
		// after every execution, so an ε-optimal stop is a pure predicate on
		// the last recorded value.
		var stop func(search.Progress) bool
		if eps := opts.Epsilon; eps > 0 {
			stop = func(p search.Progress) bool {
				return p.Recorded > 0 && p.Last <= eps
			}
		}
		res := st.mt.TraverseSearchTree(q, modtree.Options{
			Control: search.Control{
				MaxExecuted:   opts.Budget,
				Workers:       workers,
				Ctx:           ctx,
				Metrics:       &e.kModtree,
				Stop:          stop,
				Probe:         opts.Probe,
				SpecBudget:    opts.SpecBudget,
				OnImprovement: improve("modtree"),
			},
			Goal:          opts.Expected,
			AllowTopology: opts.AllowTopology,
			Domain:        e.domain,
		})
		if len(res.Best.Ops) > 0 {
			candidates = append(candidates, Rewriting{
				Query:       res.Best.Query,
				Ops:         res.Best.Ops,
				Cardinality: res.Best.Cardinality,
			})
		}
		rep.Executed = res.Executed
		rep.Trace = append([]int(nil), res.Trace...)
	} else {
		out := st.rw.Rewrite(q, relax.Options{
			Control: search.Control{
				MaxExecuted:   opts.Budget,
				Workers:       workers,
				Ctx:           ctx,
				Metrics:       &e.kRelax,
				Probe:         opts.Probe,
				SpecBudget:    opts.SpecBudget,
				OnImprovement: improve("relax"),
			},
			Goal:          opts.Expected,
			MaxSolutions:  opts.MaxRewritings,
			AllowTopology: opts.AllowTopology,
			Prefs:         opts.Prefs,
			Priority:      relax.PriorityCombined,
		})
		for _, s := range out.Solutions {
			candidates = append(candidates, Rewriting{
				Query:       s.Query,
				Ops:         s.Ops,
				Cardinality: s.Cardinality,
			})
		}
		rep.Executed = out.Executed
		// Copy: Outcome.Trace is scratch owned by the pooled rewriter and
		// would be overwritten by the next explanation that checks it out.
		rep.Trace = append([]int(nil), out.Trace...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Result level (§3.2.4). The original's sample is enumerated once, and
	// only when it can matter: with no results of the original (card counts
	// them, capped or not) the distance follows from the rewriting's
	// cardinality alone — 1 against any result, 0 against none — so a
	// why-empty request enumerates nothing.
	sample := match.Options{Limit: opts.ResultSample}
	if card > 0 && len(candidates) > 0 {
		e.m.FindRows(st.ctx, q, sample, &st.orig)
	}
	for i := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := &candidates[i]
		c.Syntactic = metrics.SyntacticDistance(q, c.Query)
		c.CardinalityDistance = opts.Expected.Distance(c.Cardinality)
		switch {
		case card > 0:
			e.m.FindRows(st.ctx, c.Query, sample, &st.cand)
			c.ResultDistance = st.score.RowSetDistance(&st.orig, &st.cand)
		case c.Cardinality > 0:
			c.ResultDistance = 1
		}
	}
	sortRewritings(candidates)
	if len(candidates) > opts.MaxRewritings {
		candidates = candidates[:opts.MaxRewritings]
	}
	rep.Rewritings = candidates
	return rep, nil
}

// sortRewritings ranks by cardinality distance, then syntactic, then result
// distance — the comprehensive comparison of §3.2.
func sortRewritings(rs []Rewriting) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && lessRewriting(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func lessRewriting(a, b Rewriting) bool {
	if a.CardinalityDistance != b.CardinalityDistance {
		return a.CardinalityDistance < b.CardinalityDistance
	}
	if a.Syntactic != b.Syntactic {
		return a.Syntactic < b.Syntactic
	}
	return a.ResultDistance < b.ResultDistance
}

// Summary renders the report for terminals.
func (r *Report) Summary() string {
	s := fmt.Sprintf("problem: %s (cardinality %d, expected [%d", r.Problem, r.Cardinality, r.Expected.Lower)
	if r.Expected.Upper > 0 {
		s += fmt.Sprintf(", %d])", r.Expected.Upper)
	} else {
		s += ", ∞))"
	}
	if r.Subgraph != nil {
		s += fmt.Sprintf("\nsubgraph explanation: MCS %d vertices / %d edges (cardinality %d, satisfied %v); differential %d vertices / %d edges",
			r.Subgraph.MCS.NumVertices(), r.Subgraph.MCS.NumEdges(), r.Subgraph.Cardinality, r.Subgraph.Satisfied,
			r.Subgraph.Differential.NumVertices(), r.Subgraph.Differential.NumEdges())
	}
	for i, rw := range r.Rewritings {
		s += fmt.Sprintf("\nrewriting %d: card=%d synΔ=%.3f cardΔ=%d resΔ=%.3f ops=%v",
			i+1, rw.Cardinality, rw.Syntactic, rw.CardinalityDistance, rw.ResultDistance, rw.Ops)
	}
	return s
}
