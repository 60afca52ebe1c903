// Package match implements the pattern-matching engine the why-query
// machinery debugs: given a property graph (internal/graph) and a graph query
// (internal/query), it enumerates or counts the data subgraphs matching the
// query (§3.1.2). An answer is a result graph — a mapping from query vertices
// and edges to data vertex and edge identifiers (Definition 6).
//
// Matching semantics are subgraph isomorphism: vertex- and edge-injective
// within each weakly connected query component, with per-element predicate
// and type disjunctions evaluated against the data (the usual semantics of
// property-graph pattern matching engines such as the thesis' GRAPHITE
// prototype). Queries with several weakly connected components combine the
// per-component embeddings (§4.3.3).
//
// The engine compiles each query into a Plan (dense vertex/edge slots,
// per-vertex candidate lists computed once, selectivity-ordered steps) and
// executes it against a flat, reusable Ctx — binding arrays plus visited
// bitsets — so the backtracking inner loop performs zero allocations. The
// original map-based engine is retained as ReferenceCount/ReferenceFind for
// differential testing.
package match

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/query"
)

// Result is a result graph (Definition 6): the mapping between query
// vertices/edges and data vertex/edge identifiers.
type Result struct {
	VertexMap map[int]graph.VertexID
	EdgeMap   map[int]graph.EdgeID
}

// clone deep-copies the result.
func (r Result) clone() Result {
	c := Result{
		VertexMap: make(map[int]graph.VertexID, len(r.VertexMap)),
		EdgeMap:   make(map[int]graph.EdgeID, len(r.EdgeMap)),
	}
	for k, v := range r.VertexMap {
		c.VertexMap[k] = v
	}
	for k, v := range r.EdgeMap {
		c.EdgeMap[k] = v
	}
	return c
}

// Options tunes a matching run.
type Options struct {
	// Limit stops the enumeration after this many results (0 = no limit).
	Limit int
	// CountCap aborts counting once the count reaches the cap (0 = exact).
	CountCap int
}

// Matcher executes pattern-matching queries over one data graph.
// A Matcher is safe for concurrent use once constructed: the implicit
// Find/Count/Exists entry points draw execution contexts from an internal
// pool and compiled plans from the shared plan cache, while the *Ctx
// variants let hot callers pin a reusable context explicitly.
type Matcher struct {
	g     *graph.Graph
	plans sync.Pool
	ctxs  sync.Pool

	// candidate cache: flattened-predicate key → shared candidate list and
	// bitset, so compiling the thousands of query variants a rewriting
	// search executes rescans the graph only for novel predicates.
	candMu     sync.RWMutex
	candCache  map[string]*candEntry
	candBytes  int // approximate resident bytes of cached lists, bitsets, keys
	candHits   atomic.Int64
	candMisses atomic.Int64

	// edge-candidate-count cache: edge constraint key → matching data-edge
	// count, for the §5.2.2 edge-cardinality statistic the collectors probe.
	edgeCountMu sync.RWMutex
	edgeCounts  map[string]int

	// compiled-plan cache: binary canonical key → shared read-only plan, so
	// repeat queries — almost all of them, across the rewriting searches —
	// skip compilation entirely (see plancache.go).
	planMu       sync.RWMutex
	planCache    map[string]*Plan
	planResident int
	planOff      bool
	planHits     atomic.Int64
	planMisses   atomic.Int64

	// executed-count cache: (binary canonical key, cap) → exact count — the
	// App. B.2 executed-query cache shared across searches and runs (see
	// plancache.go). Gated together with the plan cache by planOff.
	countCache  [countShards]countShard
	countHits   atomic.Int64
	countMisses atomic.Int64

	// flight groups coalesce concurrent misses on the same key: one caller
	// compiles/counts, the rest wait and share the result (see coalesce.go).
	planFlight      flightGroup[*Plan]
	countFlight     flightGroup[int]
	coalescedWaits  atomic.Int64
	coalescedShared atomic.Int64

	// countDelegate, when set, intercepts every CountKeyed-routed count —
	// internal/shard installs its scatter-gather eval here. The delegate runs
	// before the aggregate count cache is consulted, so sharded requests never
	// read or write whole-graph cache entries from partial results; a delegate
	// that declines (ok=false) falls back to the local engine unchanged.
	countDelegate CountDelegate
}

// CountDelegate intercepts counts. It receives the execution context (whose
// Request() carries per-request state), the query, its canonical key if the
// caller already held one, and the cap; returning ok=false falls back to the
// local engine.
type CountDelegate func(c *Ctx, q *query.Query, key string, cap int) (n int, ok bool)

// SetCountDelegate installs (or, with nil, removes) the matcher's count
// delegate. Set once at startup before serving; not synchronized against
// in-flight counts.
func (m *Matcher) SetCountDelegate(d CountDelegate) { m.countDelegate = d }

// New returns a matcher over g. The graph's packed adjacency is frozen here
// so concurrent matching never races on the lazy build.
func New(g *graph.Graph) *Matcher {
	g.Freeze()
	m := &Matcher{
		g:          g,
		candCache:  make(map[string]*candEntry),
		edgeCounts: make(map[string]int),
		planCache:  make(map[string]*Plan),
	}
	m.plans.New = func() any { return new(Plan) }
	m.ctxs.New = func() any { return newCtx(g) }
	return m
}

// Graph returns the underlying data graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// VertexMatches reports whether data vertex vd satisfies every predicate
// interval of query vertex vq.
func (m *Matcher) VertexMatches(vq *query.Vertex, vd graph.VertexID) bool {
	attrs := m.g.Vertex(vd).Attrs
	for key, pred := range vq.Preds {
		val, ok := attrs[key]
		if !ok || !pred.Matches(val) {
			return false
		}
	}
	return true
}

// EdgeMatches reports whether data edge ed satisfies the type disjunction and
// every predicate interval of query edge eq (direction is checked by the
// expansion step, not here).
func (m *Matcher) EdgeMatches(eq *query.Edge, ed graph.EdgeID) bool {
	e := m.g.Edge(ed)
	if !eq.HasType(e.Type) {
		return false
	}
	for key, pred := range eq.Preds {
		val, ok := e.Attrs[key]
		if !ok || !pred.Matches(val) {
			return false
		}
	}
	return true
}

// Candidates returns the data vertices satisfying query vertex vq, resolved
// through the matcher's shared candidate cache (an attribute index or a
// scan on a cache miss). The returned slice is a fresh copy the caller may
// mutate.
func (m *Matcher) Candidates(vq *query.Vertex) []graph.VertexID {
	e := m.candidateEntry(vq)
	return append([]graph.VertexID(nil), e.list...)
}

// CandidateCount returns the number of data vertices matching vq
// (the vertex cardinality statistic of §5.2.2). Like compilation, it is
// served from the matcher's candidate cache, so the statistics collectors'
// cold-cache probes rescan the graph only for novel predicate sets.
func (m *Matcher) CandidateCount(vq *query.Vertex) int {
	return len(m.candidateEntry(vq).list)
}

// candidateEntry resolves vq's shared candidate-cache entry.
func (m *Matcher) candidateEntry(vq *query.Vertex) *candEntry {
	var keyBuf [128]byte
	var predBuf [8]flatPred
	preds := flattenPreds(predBuf[:0], vq.Preds)
	key := appendPredKey(keyBuf[:0], preds)
	var scratch []graph.VertexID
	words := (m.g.NumVertices() + 63) / 64
	return m.resolveCandidates(key, preds, words, &scratch)
}

// EdgeCandidateCount returns the number of data edges matching eq's type and
// predicates, ignoring endpoints (the edge cardinality statistic of §5.2.2).
// Counts are cached by the edge's constraint key, so repeated probes — the
// statistics collectors re-derive them per search — scan the type's edge
// lists only once per distinct constraint.
func (m *Matcher) EdgeCandidateCount(eq *query.Edge) int {
	var keyBuf [96]byte
	key := eq.AppendConstraintKey(keyBuf[:0])
	m.edgeCountMu.RLock()
	n, ok := m.edgeCounts[string(key)]
	m.edgeCountMu.RUnlock()
	if ok {
		return n
	}
	count := 0
	countType := func(ids []graph.EdgeID) {
		for _, id := range ids {
			if m.EdgeMatches(eq, id) {
				count++
			}
		}
	}
	if len(eq.Types) > 0 {
		for _, t := range eq.Types {
			countType(m.g.EdgesByType(t))
		}
	} else {
		for i := 0; i < m.g.NumEdges(); i++ {
			if id := graph.EdgeID(i); !m.g.EdgeRemoved(id) && m.EdgeMatches(eq, id) {
				count++
			}
		}
	}
	m.edgeCountMu.Lock()
	if len(m.edgeCounts) >= candCacheCap {
		m.edgeCounts = make(map[string]int)
	}
	m.edgeCounts[string(key)] = count
	m.edgeCountMu.Unlock()
	return count
}

// Find enumerates result graphs for q up to opts.Limit.
func (m *Matcher) Find(q *query.Query, opts Options) []Result {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.FindCtx(c, q, opts)
}

// FindCtx is Find against a caller-owned execution context.
func (m *Matcher) FindCtx(c *Ctx, q *query.Query, opts Options) []Result {
	if q.NumVertices() == 0 {
		return nil
	}
	if m.planOff {
		p := m.getPlan(q)
		defer m.plans.Put(p)
		return p.Find(c, opts)
	}
	c.loadKey(q, "")
	return m.cachedPlan(c, q).Find(c, opts)
}

// Count returns the number of result graphs C(Q) (Definition 2). A non-zero
// cap stops early and returns cap once reached, which keeps the relaxation
// searches of Chapters 5–6 safe on exploding candidates.
func (m *Matcher) Count(q *query.Query, cap int) int {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.CountCtx(c, q, cap)
}

// CountCtx is Count against a caller-owned execution context — the hot path
// of the relaxation (relax), MCS (mcs), and modification-tree (modtree)
// searches, which issue thousands of counts and reuse one context each.
// The compiled plan comes from the plan cache: a repeat query (almost all
// of them across a rewriting search) performs zero compilations.
func (m *Matcher) CountCtx(c *Ctx, q *query.Query, cap int) int {
	return m.CountKeyed(c, q, "", cap)
}

// CountKeyed is CountCtx for callers that already hold q's binary canonical
// key (query.AppendKey) — the rewriting searches dedup executed candidates
// on exactly that key, so passing it through skips re-deriving it. An empty
// key means "derive it here". The (key, cap) pair is first resolved against
// the executed-count cache; only a novel pair compiles (plan cache) and
// executes.
func (m *Matcher) CountKeyed(c *Ctx, q *query.Query, key string, cap int) int {
	if q.NumVertices() == 0 {
		return 0
	}
	if d := m.countDelegate; d != nil {
		if n, ok := d(c, q, key, cap); ok {
			return n
		}
	}
	if m.planOff {
		p := m.getPlan(q)
		defer m.plans.Put(p)
		return p.Count(c, cap)
	}
	c.loadKey(q, key)
	c.cntBuf = append(c.cntBuf[:0], c.keyBuf...)
	c.cntBuf = binary.AppendUvarint(c.cntBuf, uint64(cap))
	if n, ok := m.countGet(c.cntBuf); ok {
		m.countHits.Add(1)
		return n
	}
	return m.coalescedCount(c, q, func(p *Plan) int { return p.Count(c, cap) })
}

// CountUnder is Count with the serving request's context attached to the
// pooled execution context for the duration of the call, so the count routes
// through the matcher's delegate with per-request state (the shard session)
// visible. It is the entry point for one-shot server handlers that have no
// long-lived Ctx of their own.
func (m *Matcher) CountUnder(ctx context.Context, q *query.Query, cap int) int {
	c := m.getCtx()
	c.SetRequest(ctx)
	defer func() {
		c.SetRequest(nil)
		m.putCtx(c)
	}()
	return m.CountCtx(c, q, cap)
}

// CountRange counts embeddings whose root-vertex binding lies in [lo, hi) —
// the shard-local slice of the scatter-gather count. key is q's binary
// canonical key when the caller already holds one ("" = derive here). See
// CountRangeKeyed.
func (m *Matcher) CountRange(q *query.Query, key string, cap, lo, hi int) int {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.CountRangeKeyed(c, q, key, cap, lo, hi)
}

// CountRangeKeyed is the range-restricted CountKeyed: it counts only the
// embeddings binding the plan's root vertex inside [lo, hi), which is what a
// shard evaluates for its vertex-range partition. Range counts never consult
// the delegate (a shard answering an RPC must always count locally) and are
// cached under a distinct key shape: a leading 0x00 tag byte — canonical
// query keys always start with a 'v' or 'e' record tag, never 0x00 — followed
// by the query key and fixed-width big-endian cap/lo/hi, so range entries can
// never collide with whole-graph (key, cap) entries or with each other.
func (m *Matcher) CountRangeKeyed(c *Ctx, q *query.Query, key string, cap, lo, hi int) int {
	if q.NumVertices() == 0 || lo >= hi {
		return 0
	}
	if m.planOff {
		p := m.getPlan(q)
		defer m.plans.Put(p)
		return p.CountRange(c, cap, lo, hi)
	}
	c.loadKey(q, key)
	c.cntBuf = append(c.cntBuf[:0], 0x00)
	c.cntBuf = append(c.cntBuf, c.keyBuf...)
	c.cntBuf = binary.BigEndian.AppendUint64(c.cntBuf, uint64(cap))
	c.cntBuf = binary.BigEndian.AppendUint64(c.cntBuf, uint64(lo))
	c.cntBuf = binary.BigEndian.AppendUint64(c.cntBuf, uint64(hi))
	if n, ok := m.countGet(c.cntBuf); ok {
		m.countHits.Add(1)
		return n
	}
	return m.coalescedCount(c, q, func(p *Plan) int { return p.CountRange(c, cap, lo, hi) })
}

// Exists reports whether q has at least one embedding.
func (m *Matcher) Exists(q *query.Query) bool {
	return m.Count(q, 1) > 0
}

// ExistsCtx is Exists against a caller-owned execution context.
func (m *Matcher) ExistsCtx(c *Ctx, q *query.Query) bool {
	return m.CountCtx(c, q, 1) > 0
}

func (m *Matcher) getPlan(q *query.Query) *Plan {
	p := m.plans.Get().(*Plan)
	m.compileInto(p, q)
	return p
}

func (m *Matcher) getCtx() *Ctx  { return m.ctxs.Get().(*Ctx) }
func (m *Matcher) putCtx(c *Ctx) { m.ctxs.Put(c) }

// PathCount counts the data paths matching a chain of query edges starting
// from any candidate of the chain's first vertex — the Path(n) statistic of
// §5.2.3. The chain is given as consecutive edge ids of q forming a path;
// vertex injectivity along the path is enforced.
func (m *Matcher) PathCount(q *query.Query, chain []int, cap int) int {
	if len(chain) == 0 {
		return 0
	}
	sub := q.SubqueryByEdges(chain)
	return m.Count(sub, cap)
}

// sortableResults pairs results with their precomputed sort keys so the
// comparator never rebuilds a key.
type sortableResults struct {
	rs   []Result
	keys [][]int64
}

func (s *sortableResults) Len() int { return len(s.rs) }
func (s *sortableResults) Swap(i, j int) {
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
func (s *sortableResults) Less(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	for x := 0; x < len(a) && x < len(b); x++ {
		if a[x] != b[x] {
			return a[x] < b[x]
		}
	}
	return len(a) < len(b)
}

// SortResults orders results deterministically (by the data vertex bound to
// the smallest query vertex id, then lexicographically; embeddings that bind
// the same vertices but different parallel data edges break the tie on the
// edge bindings) for stable output in tests and reports. Sort keys are
// computed once per result, not per comparison.
func SortResults(rs []Result) {
	s := &sortableResults{rs: rs, keys: make([][]int64, len(rs))}
	qids := make([]int, 0, 8)
	for i, r := range rs {
		qids = qids[:0]
		for q := range r.VertexMap {
			qids = append(qids, q)
		}
		sort.Ints(qids)
		k := make([]int64, 0, (len(r.VertexMap)+len(r.EdgeMap))*2)
		for _, q := range qids {
			k = append(k, int64(q), int64(r.VertexMap[q]))
		}
		qids = qids[:0]
		for q := range r.EdgeMap {
			qids = append(qids, q)
		}
		sort.Ints(qids)
		for _, q := range qids {
			k = append(k, int64(q), int64(r.EdgeMap[q]))
		}
		s.keys[i] = k
	}
	sort.Sort(s)
}
