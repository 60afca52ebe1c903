// Package mcs generates the subgraph-based explanations of Chapter 4: the
// maximum common connected subgraph (MCS) between a pattern-matching query
// and the data graph — the largest part of the query that still satisfies
// the cardinality constraint — together with the differential graph (the
// failed query part, §4.1.2).
//
// DISCOVERMCS (§4.2.1) handles why-empty queries (constraint: at least one
// result); BOUNDEDMCS (§4.2.2) generalizes the constraint to a cardinality
// interval for why-so-few and why-so-many queries and bounds each traversal's
// result enumeration by the threshold. Both algorithms traverse the query
// graph, growing a connected subquery edge by edge and executing each
// extension against the data graph.
//
// The optimizations of §4.3 are selectable: processing weakly connected
// components independently (§4.3.1), restricting the search to a single
// traversal path (§4.3.2), and handling unconnected components (§4.3.3).
// User integration (§4.4) supplies per-edge relevance weights that steer the
// traversal path and rank the produced explanations.
//
// Budgeting, visited-state dedup, cancellation, and speculative frontier
// probing run on the shared kernel of internal/search; this package
// contributes the strategy: the growth-with-backtracking traversal and the
// closest-cardinality fallback (reconstructed from the thesis' Chapter 1–3
// descriptions, see DESIGN.md — Chapter 4's algorithmic details arrive
// truncated in the source text). A Searcher keeps the kernel executor across
// runs; the package-level BoundedMCS and DiscoverMCS are one run of a fresh one.
package mcs

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/stats"
)

// Options configures the MCS search. The embedded search.Control supplies
// the kernel knobs — Workers, Ctx, MaxExecuted (the traversal budget),
// CountCap (0 = derived from the bounds), Metrics — via field promotion.
// With Workers > 1 the frontier's candidate extensions are probed
// concurrently; the explanation, its path, and the Traversals count stay
// byte-identical to the sequential search (Traversals counts logical
// executions — speculative probes the search never consumes are prefetch
// work and do not count).
type Options struct {
	search.Control
	// UseWCC processes weakly connected query components independently
	// (§4.3.1); without it every candidate subquery is executed against the
	// full cross-component state, inflating intermediate results.
	UseWCC bool
	// SinglePath restricts the search to one traversal path (§4.3.2): at
	// each step only the best-priority succeeding extension is followed, and
	// failed edges are never retried. Fewer traversals, possibly smaller MCS.
	SinglePath bool
	// EdgeWeights carries the user's relevance per query edge id (§4.4).
	// Heavier edges are traversed first, so the MCS preferentially covers
	// what the user cares about.
	EdgeWeights map[int]float64
}

// DefaultTraversalBudget bounds the subquery executions per explanation.
const DefaultTraversalBudget = 1000

// Explanation is a subgraph-based explanation: the succeeded query part and
// the differential graph describing the failed part.
type Explanation struct {
	// MCS is the maximum common connected subgraph: the largest subquery
	// whose cardinality satisfies the constraint.
	MCS *query.Query
	// Differential is the failed query part: the original query minus the
	// MCS (§4.1.2). Empty when the whole query satisfies the constraint.
	Differential *query.Query
	// Cardinality is the result size of the MCS subquery (capped at the
	// interval's upper bound plus one for why-so-many runs).
	Cardinality int
	// Satisfied reports whether the MCS meets the cardinality interval; if
	// no subquery does, MCS holds the closest one and Satisfied is false.
	Satisfied bool
	// Traversals counts subquery executions — the evaluation currency of
	// §4.5.
	Traversals int
	// Path lists the accepted edge identifiers in traversal order.
	Path []int
}

// Rank scores the explanation by accumulated user relevance (§4.4.3): the
// weight of covered edges over the total weight. Unweighted edges count 1.
func (e Explanation) Rank(weights map[int]float64, original *query.Query) float64 {
	w := func(id int) float64 {
		if v, ok := weights[id]; ok {
			return v
		}
		return 1
	}
	var covered, total float64
	for _, oe := range original.Edges() {
		total += w(oe.ID)
		if e.MCS != nil && e.MCS.Edge(oe.ID) != nil {
			covered += w(oe.ID)
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}

// Searcher runs MCS searches over one data graph. Like relax.Rewriter and
// modtree.Searcher it keeps one search-kernel executor (matching context,
// worker pool, dedup scratch) across its runs, so it must not be shared
// between goroutines.
type Searcher struct {
	m  *match.Matcher
	st *stats.Collector
	ex *search.Executor
}

// New returns a searcher over the matcher and its statistics collector.
func New(m *match.Matcher, st *stats.Collector) *Searcher {
	return &Searcher{m: m, st: st, ex: search.NewExecutor(m)}
}

// DiscoverMCS runs the why-empty algorithm of §4.2.1: the cardinality
// constraint is "at least one result".
func DiscoverMCS(m *match.Matcher, st *stats.Collector, q *query.Query, opts Options) Explanation {
	return BoundedMCS(m, st, q, metrics.AtLeastOne, opts)
}

// BoundedMCS is one run of a fresh Searcher.
func BoundedMCS(m *match.Matcher, st *stats.Collector, q *query.Query, bounds metrics.Interval, opts Options) Explanation {
	return New(m, st).BoundedMCS(q, bounds, opts)
}

// BoundedMCS runs the general algorithm of §4.2.2: it searches for the
// maximum connected subquery whose cardinality lies inside bounds. Subquery
// executions are bounded by the interval's upper bound, which keeps
// traversals cheap for the too-many-answers problem. If no subquery
// satisfies the bounds, the subquery with the smallest cardinality distance
// is returned with Satisfied == false.
func (s *Searcher) BoundedMCS(q *query.Query, bounds metrics.Interval, opts Options) Explanation {
	if opts.MaxExecuted <= 0 {
		opts.MaxExecuted = DefaultTraversalBudget
	}
	s.ex.Begin(opts.Control)
	defer s.ex.End()
	r := &runner{m: s.m, st: s.st, q: q, bounds: bounds, opts: opts, ex: s.ex, fired: &firedFloor{}}
	if opts.UseWCC {
		return r.runPerComponent()
	}
	return r.runWhole()
}

type runner struct {
	m      *match.Matcher
	st     *stats.Collector
	q      *query.Query
	bounds metrics.Interval
	opts   Options

	// ex is the shared search-kernel executor: traversal budget,
	// visited-state dedup, cancellation, and speculative frontier probes.
	ex *search.Executor

	// fired is the improvement-callback floor, shared across the fresh
	// per-component sub-runners of runPerComponent so the distances handed to
	// OnImprovement stay monotone non-increasing for the whole run even
	// though each component restarts its incumbent.
	fired *firedFloor

	hasBest       bool
	bestEdges     []int
	bestIsolated  []int
	bestCard      int
	bestSatisfied bool
	bestDist      int
}

// firedFloor is the smallest cardinality distance reported through the
// improvement callback so far.
type firedFloor struct {
	has  bool
	dist int
}

// countCap limits result enumeration per execution ("bounded" evaluation):
// the configured CountCap when set, otherwise derived from the bounds.
func (r *runner) countCap() int {
	if r.opts.CountCap > 0 {
		return r.opts.CountCap
	}
	if r.bounds.Upper > 0 {
		return r.bounds.Upper + 1
	}
	if r.bounds.Lower > 0 {
		return r.bounds.Lower
	}
	return 1
}

// execute counts the embeddings of the subquery induced by the given edges
// and isolated vertices, spending one traversal. The kernel consumes
// speculated probe results by key, the edges' stateKey ("" without edges:
// nothing to dedup or consume); cardinalities are deterministic, so a
// consumed probe is indistinguishable from an inline execution. Baseline
// executions (no edges) run even when the budget is already spent — the
// traversal loops gate on Stopped at a coarser granularity — hence
// ExecuteAlways.
func (r *runner) execute(key string, edges, isolated []int) int {
	return r.ex.ExecuteAlways(key, func(ctx *match.Ctx) int {
		return r.m.CountCtx(ctx, r.q.Subquery(edges, isolated), r.countCap())
	})
}

// record updates the incumbent with a candidate subquery.
func (r *runner) record(edges, isolated []int, card int) {
	satisfied := r.bounds.Contains(card)
	if !satisfied && card == 0 {
		// An empty subquery result can never explain the failure: the MCS of
		// a totally failing query is the empty query (whole differential).
		return
	}
	dist := r.bounds.Distance(card)
	size := len(edges) + len(isolated)
	bestSize := len(r.bestEdges) + len(r.bestIsolated)
	better := !r.hasBest
	switch {
	case better:
	case satisfied && !r.bestSatisfied:
		better = true
	case satisfied == r.bestSatisfied && satisfied:
		better = size > bestSize || (size == bestSize && dist < r.bestDist)
	case satisfied == r.bestSatisfied && !satisfied:
		better = dist < r.bestDist || (dist == r.bestDist && size > bestSize)
	}
	if better {
		r.hasBest = true
		r.bestEdges = append([]int(nil), edges...)
		r.bestIsolated = append([]int(nil), isolated...)
		r.bestCard = card
		r.bestSatisfied = satisfied
		r.bestDist = dist
		if r.ex.Improving() && (!r.fired.has || dist <= r.fired.dist) {
			r.fired.has, r.fired.dist = true, dist
			r.ex.Improved(search.Candidate{Query: r.q.Subquery(edges, isolated), Cardinality: card, Distance: dist})
		}
	}
}

// priority orders candidate edges: user weight descending (§4.4.2), then
// Path(1) cardinality ascending (selective first, §4.3.2), then id.
func (r *runner) priority(edges []int) []int {
	type scored struct {
		id     int
		weight float64
		card   int
	}
	s := make([]scored, 0, len(edges))
	for _, id := range edges {
		w := 0.0
		if r.opts.EdgeWeights != nil {
			w = r.opts.EdgeWeights[id]
		}
		s = append(s, scored{id: id, weight: w, card: r.st.Path1Cardinality(r.q, id)})
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].weight != s[j].weight {
			return s[i].weight > s[j].weight
		}
		if s[i].card != s[j].card {
			return s[i].card < s[j].card
		}
		return s[i].id < s[j].id
	})
	out := make([]int, len(s))
	for i, x := range s {
		out[i] = x.id
	}
	return out
}

// stateKey encodes a traversal state (an edge-id set) as a compact binary
// string: sorted ids, uvarint-encoded. It keys the kernel's visited-state
// dedup and speculation maps; the binary form avoids the per-probe
// strconv/strings.Builder garbage of the textual encoding it replaced.
func stateKey(edges []int) string {
	var stack [16]int
	c := append(stack[:0], edges...)
	sort.Ints(c)
	var buf [80]byte
	b := buf[:0]
	for _, id := range c {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return string(b)
}

// runWhole is the naive strategy: candidate subqueries span all components
// at once, so every execution pays the full cross-component cost.
func (r *runner) runWhole() Explanation {
	comps := r.q.WeaklyConnectedComponents()
	var allEdges []int
	var isolated []int
	for _, comp := range comps {
		edges, iso := componentEdges(r.q, comp)
		allEdges = append(allEdges, edges...)
		isolated = append(isolated, iso...)
	}
	// Keep isolated vertices that match at least one data vertex.
	okIsolated := r.filterIsolated(isolated)
	r.grow(allEdges, okIsolated)
	return r.finish()
}

// runPerComponent applies the §4.3.1 optimization: each weakly connected
// component is solved independently — with a fresh visited-state set under
// the one shared traversal budget — and the per-component MCSes are merged.
func (r *runner) runPerComponent() Explanation {
	comps := r.q.WeaklyConnectedComponents()
	var mergedEdges, mergedIsolated []int
	totalCard := 1
	satisfied := true
	for _, comp := range comps {
		edges, iso := componentEdges(r.q, comp)
		okIso := r.filterIsolated(iso)
		sub := &runner{m: r.m, st: r.st, q: r.q, bounds: r.bounds, opts: r.opts, ex: r.ex, fired: r.fired}
		r.ex.ResetDedup() // component states are disjoint; leftover probes are waste
		sub.grow(edges, okIso)
		mergedEdges = append(mergedEdges, sub.bestEdges...)
		mergedIsolated = append(mergedIsolated, sub.bestIsolated...)
		if sub.bestCard == 0 {
			totalCard = 0
		} else if totalCard < 1<<30 {
			totalCard *= sub.bestCard
		}
		satisfied = satisfied && sub.bestSatisfied
	}
	r.bestEdges = mergedEdges
	r.bestIsolated = mergedIsolated
	r.bestCard = totalCard
	r.bestSatisfied = r.bounds.Contains(totalCard)
	r.bestDist = r.bounds.Distance(totalCard)
	return r.finish()
}

// componentEdges lists the edges of the component with the given members
// (ascending), or, when it has none, the members as isolated vertices.
func componentEdges(q *query.Query, comp []int) (edges, isolated []int) {
	for _, e := range q.Edges() {
		if _, in := slices.BinarySearch(comp, e.From); in {
			edges = append(edges, e.ID)
		}
	}
	if len(edges) == 0 {
		isolated = comp
	}
	return edges, isolated
}

// filterIsolated keeps isolated vertices with at least one data candidate
// (§4.3.3): an unmatchable isolated vertex belongs to the differential.
func (r *runner) filterIsolated(isolated []int) []int {
	var ok []int
	for _, v := range isolated {
		if r.st.VertexCardinality(r.q.Vertex(v)) > 0 {
			ok = append(ok, v)
		}
	}
	return ok
}

// grow runs the traversal search over the given candidate edges.
func (r *runner) grow(candidates, isolated []int) {
	if len(candidates) == 0 {
		if len(isolated) > 0 {
			card := r.execute("", nil, isolated)
			r.record(nil, isolated, card)
		} else {
			r.record(nil, nil, 0)
		}
		return
	}
	if len(isolated) > 0 {
		// Baseline candidate: the matchable isolated vertices alone.
		card := r.execute("", nil, isolated)
		r.record(nil, isolated, card)
	}
	ordered := r.priority(candidates)
	countCap := r.countCap()
	var dfs func(accepted []int)
	dfs = func(accepted []int) {
		if r.ex.Stopped() {
			return
		}
		frontier := r.frontier(accepted, ordered)
		// Each extension's edge set and visited-state key are built once, for
		// the speculation wave and the traversal alike.
		type extension struct {
			edges []int
			key   string
		}
		exts, buf := make([]extension, len(frontier)), make([]int, 0, len(frontier)*(len(accepted)+1))
		for i, eid := range frontier {
			buf = append(append(buf, accepted...), eid)
			exts[i].edges = buf[len(buf)-len(accepted)-1 : len(buf) : len(buf)]
			exts[i].key = stateKey(exts[i].edges)
		}
		for fi, next := range exts {
			if r.ex.Parallel() && fi%r.ex.Width() == 0 {
				// Probe one worker-sized wave of extensions ahead: the
				// traversal re-speculates wave by wave, so waste on an early
				// exit (SinglePath success, budget out) stays bounded.
				search.SpeculateSlice(r.ex, exts[fi:],
					func(x extension) string { return x.key },
					func(ctx *match.Ctx, x extension) int {
						return r.m.CountCtx(ctx, r.q.Subquery(x.edges, isolated), countCap)
					})
			}
			if !r.ex.Visit(next.key) {
				continue
			}
			if r.ex.Stopped() {
				break
			}
			card := r.execute(next.key, next.edges, isolated)
			r.record(next.edges, isolated, card)
			if r.bounds.Contains(card) {
				dfs(next.edges)
				if r.opts.SinglePath {
					return // single traversal path: first success only
				}
			}
		}
	}
	dfs(nil)
	if !r.hasBest {
		// No edge-bearing subquery matched: the maximum common subgraph can
		// still be a single query vertex (a one-vertex common subgraph).
		seen := map[int]bool{}
		for _, eid := range candidates {
			e := r.q.Edge(eid)
			for _, v := range []int{e.From, e.To} {
				if seen[v] || r.ex.Stopped() {
					continue
				}
				seen[v] = true
				withV := append(append([]int(nil), isolated...), v)
				card := r.execute("", nil, withV)
				r.record(nil, withV, card)
			}
		}
	}
}

// frontier returns candidate extensions: edges connected to the accepted
// subquery (sharing a vertex), or every candidate when nothing is accepted
// yet. Order follows the priority order.
func (r *runner) frontier(accepted, ordered []int) []int {
	if len(accepted) == 0 {
		return ordered
	}
	acceptedSet := make(map[int]bool, len(accepted))
	touched := make(map[int]bool)
	for _, eid := range accepted {
		acceptedSet[eid] = true
		e := r.q.Edge(eid)
		touched[e.From] = true
		touched[e.To] = true
	}
	var out []int
	for _, eid := range ordered {
		if acceptedSet[eid] {
			continue
		}
		e := r.q.Edge(eid)
		if touched[e.From] || touched[e.To] {
			out = append(out, eid)
		}
	}
	return out
}

// finish assembles the Explanation from the incumbent.
func (r *runner) finish() Explanation {
	mcs := r.q.Subquery(r.bestEdges, r.bestIsolated)
	diff := differential(r.q, mcs)
	return Explanation{
		MCS:          mcs,
		Differential: diff,
		Cardinality:  r.bestCard,
		Satisfied:    r.bestSatisfied,
		Traversals:   r.ex.Executions(),
		Path:         append([]int(nil), r.bestEdges...),
	}
}

// differential computes the differential graph (§4.1.2): the query elements
// not covered by the MCS — all failed edges plus the vertices that neither
// the MCS nor a failed edge covers.
func differential(q, mcs *query.Query) *query.Query {
	var edges, uncovered []int
	for _, e := range q.Edges() {
		if mcs.Edge(e.ID) == nil {
			edges = append(edges, e.ID)
		}
	}
	for _, v := range q.Vertices() {
		if mcs.Vertex(v.ID) == nil {
			uncovered = append(uncovered, v.ID)
		}
	}
	// Subquery adds each uncovered vertex once, a failed edge's endpoint or not.
	return q.Subquery(edges, uncovered)
}
