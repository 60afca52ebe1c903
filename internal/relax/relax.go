// Package relax implements the coarse-grained modification-based
// explanations of Chapter 5 for why-empty queries: the original query is
// relaxed — whole predicates, types, directions, edges, or leaf vertices are
// discarded — until a rewritten query delivers results. The search over
// query candidates is steered by a priority function fed with the
// query-dependent statistics of internal/stats (§5.2–5.3), already executed
// candidates are cached and re-used (§5.5.2, App. B.2), and a non-intrusive
// user-preference model learned from ratings adapts the rewriting (§5.4).
//
// The search loop itself — deterministic frontier, budgeted execution,
// executed-candidate dedup, cancellation, speculation — is the shared
// kernel of internal/search; this package contributes the strategy:
// relaxation enumeration (§5.1.2) and the priority functions (§5.3).
package relax

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/stats"
)

// Priority selects the query-candidate selector's priority function
// (§5.3, evaluated in §5.5.1 and §5.5.3).
type Priority int

const (
	// PriorityRandom pops candidates in random order (baseline).
	PriorityRandom Priority = iota
	// PrioritySyntactic prefers candidates closest to the original query.
	PrioritySyntactic
	// PriorityEstimatedCardinality prefers candidates with the largest
	// estimated cardinality (§5.2).
	PriorityEstimatedCardinality
	// PriorityAvgPath1 prefers candidates with the largest average Path(1)
	// cardinality (§5.5.3).
	PriorityAvgPath1
	// PriorityCombined multiplies the average Path(1) cardinality with the
	// induced cardinality change of the generating modification (§5.5.3).
	PriorityCombined
)

// String names the priority function for reports.
func (p Priority) String() string {
	switch p {
	case PrioritySyntactic:
		return "syntactic"
	case PriorityEstimatedCardinality:
		return "estimated-cardinality"
	case PriorityAvgPath1:
		return "avg-path1"
	case PriorityCombined:
		return "path1+induced"
	default:
		return "random"
	}
}

// Options tunes the rewriting search. The embedded search.Control supplies
// the kernel knobs — Workers, Ctx, MaxExecuted (0 = 200), CountCap
// (0 = 1000), Metrics — under their historical names via field promotion.
type Options struct {
	search.Control
	// Priority selects the candidate-selection function.
	Priority Priority
	// Goal is the cardinality interval a rewriting must reach; the zero
	// value means "at least one result" (why-empty).
	Goal metrics.Interval
	// MaxSolutions stops the search after this many rewritings reached the
	// goal (0 = 5).
	MaxSolutions int
	// MaxDepth bounds the number of stacked relaxations (0 = 3).
	MaxDepth int
	// Seed drives the random priority (and tie-breaking jitter).
	Seed int64
	// Prefs, when set, penalizes candidates that modify query elements the
	// user cares about (§5.4.2).
	Prefs *PreferenceModel
	// AllowTopology enables edge/vertex discarding in addition to
	// predicate-level relaxations (§5.1.2 considers both).
	AllowTopology bool
}

func (o *Options) fill() {
	if o.Goal == (metrics.Interval{}) {
		o.Goal = metrics.AtLeastOne
	}
	if o.MaxExecuted == 0 {
		o.MaxExecuted = 200
	}
	if o.MaxSolutions == 0 {
		o.MaxSolutions = 5
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 3
	}
	if o.CountCap == 0 {
		o.CountCap = 1000
	}
}

// Candidate is a rewritten query with its provenance and measurements.
type Candidate struct {
	// Query is the rewritten query.
	Query *query.Query
	// Ops lists the modifications applied to the original, in order.
	Ops []query.Op
	// Cardinality is the (possibly capped) result size; -1 before execution.
	Cardinality int
	// Syntactic is the syntactic distance to the original query.
	Syntactic float64
	// Score is the priority under which the candidate was scheduled.
	Score float64

	// ckey caches the binary canonical key (the executed-query cache key,
	// also the matcher's plan-cache key).
	ckey string
}

// key returns the candidate's binary canonical key, computed once. Children
// inherit their key from the delta encoder at generation time; only roots
// derive it from scratch here.
func (c *Candidate) key() string {
	if c.ckey == "" {
		c.ckey = c.Query.Key()
	}
	return c.ckey
}

// moreUrgent is the frontier's strict order: larger scores pop first; equal
// scores fall back to the kernel's insertion-sequence tie-break, so the pop
// sequence is a total order and speculation cannot reorder it.
func moreUrgent(a, b *Candidate) bool { return a.Score > b.Score }

// Outcome reports a rewriting run.
type Outcome struct {
	// Solutions holds the rewritten queries that reached the goal, ranked
	// by syntactic distance, then smaller cardinality (Eq. 3.20).
	Solutions []Candidate
	// Executed counts candidate executions — the §5.5.1 cost metric.
	Executed int
	// Generated counts generated candidates.
	Generated int
	// CacheHits counts candidates skipped because an equivalent query was
	// already executed (App. B.2).
	CacheHits int
	// Trace records the executed candidates' cardinalities in execution
	// order — the §5.5.2 convergence series. The slice is owned by the
	// Rewriter's reusable scratch: it stays valid until the next Rewrite
	// call on the same Rewriter (copy it to retain it longer).
	Trace []int
}

// Rewriter generates coarse-grained modification-based explanations.
// A Rewriter reuses one search-kernel executor (matching context, worker
// pool, dedup and trace scratch) across its rewriting runs, so it must not
// be shared between goroutines; speculation results are consumed on the
// calling goroutine only.
type Rewriter struct {
	m  *match.Matcher
	st *stats.Collector
	ex *search.Executor
	pq *search.Frontier[*Candidate]
}

// New returns a rewriter over the matcher and its statistics collector.
func New(m *match.Matcher, st *stats.Collector) *Rewriter {
	return &Rewriter{m: m, st: st, ex: search.NewExecutor(m), pq: search.NewFrontier(moreUrgent)}
}

// deterministicScore reports whether the priority function is rng-free, so
// child scores may be computed out of order (and therefore in parallel).
func deterministicScore(p Priority) bool {
	switch p {
	case PrioritySyntactic, PriorityEstimatedCardinality, PriorityAvgPath1, PriorityCombined:
		return true
	}
	return false
}

// Rewrite relaxes q until rewritten queries reach the goal interval.
// For the classic why-empty problem pass the zero Options (goal ≥ 1).
func (r *Rewriter) Rewrite(q *query.Query, opts Options) Outcome {
	opts.fill()
	var rng *rand.Rand
	if !deterministicScore(opts.Priority) {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	var out Outcome
	ex, pq := r.ex, r.pq
	ex.Begin(opts.Control)
	defer ex.End()
	pq.Reset()

	countCap := opts.CountCap
	specEval := func(ctx *match.Ctx, c *Candidate) int {
		return r.m.CountKeyed(ctx, c.Query, c.key(), countCap)
	}

	// Every candidate derives from this clone copy-on-write, so measuring
	// against it (not the caller's q) lets the distance skip what they share.
	root := &Candidate{Query: q.Clone(), Cardinality: -1, Score: math.Inf(1)}
	q = root.Query
	pq.Push(root)

	// Child-expansion scratch, reused across iterations. key carries the
	// binary canonical key already computed by the delta encoder for the
	// dedup check into the pushed Candidate, so it is never rebuilt on pop
	// or prefetch.
	type childCand struct {
		op    query.Op
		query *query.Query
		key   string
	}
	var children []childCand
	var scores []float64

	// Anytime incumbent: the executed rewriting closest to the goal so far,
	// ordered by (goal distance, syntactic distance). The first executed
	// relaxation always improves on the empty incumbent, so streaming
	// consumers get a first explanation after one rewritten execution.
	bestDist, bestSyn, haveBest := 0, 0.0, false

	for pq.Len() > 0 && !ex.Stopped() && len(out.Solutions) < opts.MaxSolutions {
		search.SpeculateTop(ex, pq, (*Candidate).key, specEval)
		c, _ := pq.Pop()
		key := c.key()
		if ex.Seen(key) {
			out.CacheHits++
			continue
		}
		card, ok := ex.Execute(key, func(ctx *match.Ctx) int {
			return r.m.CountKeyed(ctx, c.Query, key, countCap)
		})
		if !ok {
			break
		}
		ex.Record(card)
		c.Cardinality = card
		c.Syntactic = metrics.SyntacticDistance(q, c.Query)
		if len(c.Ops) > 0 {
			if dist := opts.Goal.Distance(card); !haveBest || dist < bestDist || (dist == bestDist && c.Syntactic < bestSyn) {
				bestDist, bestSyn, haveBest = dist, c.Syntactic, true
				ex.Improved(search.Candidate{Query: c.Query, Ops: c.Ops, Cardinality: card, Distance: dist})
			}
		}
		if opts.Goal.Contains(card) && len(c.Ops) > 0 {
			out.Solutions = append(out.Solutions, *c)
			continue // goal reached on this branch
		}
		if len(c.Ops) >= opts.MaxDepth {
			continue
		}
		// Generate children first (Apply and the executed-query dedup stay
		// in enumeration order), then score: scoring is the statistics-heavy
		// part and — for rng-free priorities — order-independent, so the
		// worker pool can compute all child scores of one expansion at once.
		// The parent's estimate, the base of every child's induced change, is
		// taken once.
		var before float64
		if opts.Priority == PriorityCombined {
			before, _ = r.st.Estimates(c.Query, key)
		}
		children = children[:0]
		for _, op := range r.relaxations(c.Query, opts) {
			child, childKey, err := query.ApplyKeyed(c.Query, key, op)
			if err != nil {
				continue
			}
			if ex.Seen(childKey) {
				out.CacheHits++
				continue
			}
			children = append(children, childCand{op: op, query: child, key: childKey})
		}
		if cap(scores) < len(children) {
			scores = make([]float64, len(children))
		}
		scores = scores[:len(children)]
		if ex.Parallel() && len(children) >= 2 && deterministicScore(opts.Priority) {
			ex.Scatter(len(children), func(_ *match.Ctx, i int) {
				scores[i] = r.score(q, children[i].query, children[i].key, before, opts, nil)
			})
		} else {
			for i := range children {
				scores[i] = r.score(q, children[i].query, children[i].key, before, opts, rng)
			}
		}
		for i := range children {
			ops := append(append([]query.Op(nil), c.Ops...), children[i].op)
			score := scores[i]
			if opts.Prefs != nil {
				score *= 1 - opts.Prefs.Penalty(ops)
			}
			pq.Push(&Candidate{Query: children[i].query, Ops: ops, Cardinality: -1, Score: score, ckey: children[i].key})
		}
	}
	out.Executed = ex.Executions()
	out.Generated = pq.Pushed()
	out.Trace = ex.Trace()
	rankSolutions(out.Solutions)
	return out
}

// score computes the scheduling priority of a child candidate from the query
// and key ApplyKeyed built for it; before is its parent's estimate.
func (r *Rewriter) score(orig, child *query.Query, key string, before float64, opts Options, rng *rand.Rand) float64 {
	switch {
	case !deterministicScore(opts.Priority):
		return rng.Float64()
	case opts.Priority == PrioritySyntactic:
		return 1 - metrics.SyntacticDistance(orig, child)
	}
	est, avg := r.st.Estimates(child, key)
	switch opts.Priority {
	case PriorityEstimatedCardinality:
		return est
	case PriorityAvgPath1:
		return avg
	}
	induced := stats.InducedRatio(before, est)
	if math.IsInf(induced, 1) {
		induced = 1e9
	}
	return avg * induced
}

// relaxations enumerates the coarse-grained relaxation operations applicable
// to q (§5.1.2): whole-predicate, type, and direction discarding, plus —
// with AllowTopology — edge and leaf-vertex discarding.
func (r *Rewriter) relaxations(q *query.Query, opts Options) []query.Op {
	var ops []query.Op
	for _, v := range q.Vertices() {
		for attr := range v.Preds {
			ops = append(ops, query.DeletePredicate{On: query.Target{Kind: query.TargetVertex, ID: v.ID, Attr: attr}})
		}
	}
	for _, e := range q.Edges() {
		eid := e.ID
		for attr := range e.Preds {
			ops = append(ops, query.DeletePredicate{On: query.Target{Kind: query.TargetEdge, ID: eid, Attr: attr}})
		}
		if len(e.Types) > 0 {
			ops = append(ops, query.DeleteType{Edge: eid})
		}
		if e.Dirs != query.Both {
			ops = append(ops, query.DeleteDirection{Edge: eid})
		}
		if opts.AllowTopology && q.NumEdges() > 1 {
			ops = append(ops, query.DeleteEdge{Edge: eid})
		}
	}
	if opts.AllowTopology && q.NumVertices() > 1 {
		for _, v := range q.Vertices() {
			if q.Degree(v.ID) <= 1 {
				ops = append(ops, query.DeleteVertex{Vertex: v.ID})
			}
		}
	}
	sortOps(ops)
	return ops
}

// sortOps makes enumeration order deterministic (lexicographic on the ops'
// textual forms, which are precomputed once per op — String() goes through
// fmt, so calling it inside the comparator would dominate enumeration).
func sortOps(ops []query.Op) {
	keys := make([]string, len(ops))
	for i, op := range ops {
		keys[i] = op.String()
	}
	sort.Sort(&opsByKey{ops: ops, keys: keys})
}

type opsByKey struct {
	ops  []query.Op
	keys []string
}

func (s *opsByKey) Len() int           { return len(s.ops) }
func (s *opsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *opsByKey) Swap(i, j int) {
	s.ops[i], s.ops[j] = s.ops[j], s.ops[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// rankSolutions orders solutions by syntactic distance (closest first), then
// smaller cardinality (Eq. 3.20 prefers smaller non-empty results), then
// canonical text for determinism.
func rankSolutions(sols []Candidate) {
	sort.Slice(sols, func(i, j int) bool {
		if sols[i].Syntactic != sols[j].Syntactic {
			return sols[i].Syntactic < sols[j].Syntactic
		}
		if sols[i].Cardinality != sols[j].Cardinality {
			return sols[i].Cardinality < sols[j].Cardinality
		}
		return sols[i].Query.Canonical() < sols[j].Query.Canonical()
	})
}
