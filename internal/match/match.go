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
// bitsets — so the backtracking inner loop performs zero allocations. No
// predicate is evaluated per data element: each is bound once, per compiled
// edge or candidate-cache miss, to its attribute column of the frozen graph
// (boundPred: the admitted dictionary codes as a bitset), and an element is
// tested with one array load and one bit test.
//
// Enumeration emits rows: since every result of one query binds the same
// query elements, a result set is a column header (the plan's vertex and
// edge ids) and one fixed-width tuple of data ids per result, appended to
// the flat slice of a caller-owned Rows (FindRows) — the form the result
// distance of internal/metrics is computed on, without a map per result.
// Find and FindCtx convert those rows into Result maps for callers that want
// result graphs. The original map-based engine is retained as
// ReferenceCount/ReferenceFind for differential testing; it reads the
// attribute maps only, nothing the compiled engine resolves.
package match

import (
	"context"
	"encoding/binary"
	"sort"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/query"
)

// Result is a result graph (Definition 6): the mapping between query
// vertices/edges and data vertex/edge identifiers. Rows holds a whole result
// set without the maps.
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
	plans cache.FreeList[*Plan]
	ctxs  cache.FreeList[*Ctx]

	// The three caches are instances of internal/cache (sharding, epoch
	// eviction, counters, miss coalescing and carry-over live there); what
	// this package adds is the key encoders and the bounds below.
	//
	// candCache: flattened-predicate key → shared candidate list and bitset,
	// so compiling the thousands of query variants a rewriting search
	// executes rescans the graph only for novel predicates.
	// planCache: binary canonical key → shared read-only plan, so repeat
	// queries — almost all of them, across the rewriting searches — skip
	// compilation entirely (see plancache.go).
	// countCache: (binary canonical key, cap) → exact count — the App. B.2
	// executed-query cache shared across searches and runs. Gated together
	// with the plan cache by planOff.
	candCache  *cache.Cache[*candEntry]
	planCache  *cache.Cache[*Plan]
	countCache *cache.Cache[int]
	planOff    bool

	// countDelegate, when set, intercepts every whole-graph count —
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
		candCache:  cache.New[*candEntry](candCacheCap, candCacheMaxBytes),
		planCache:  cache.New[*Plan](planCacheCap, planCacheMaxBytes),
		countCache: cache.New[int](countCacheCap, 0),
	}
	m.plans.New = func() *Plan { return new(Plan) }
	m.ctxs.New = func() *Ctx { return newCtx(g) }
	return m
}

// Graph returns the underlying data graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// CandidateCount returns the number of data vertices matching vq
// (the vertex cardinality statistic of §5.2.2). Like compilation, it is
// served from the matcher's candidate cache, so the statistics collectors'
// cold-cache probes rescan the graph only for novel predicate sets.
func (m *Matcher) CandidateCount(vq *query.Vertex) int {
	return len(m.candidateEntry(vq).list)
}

// candidateEntry resolves vq's shared candidate-cache entry (an attribute
// index or a scan on a cache miss). Its list is shared: read only.
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
// It is a plain scan of the type's edge lists: stats.Collector caches the
// result by the edge's constraint key and carries it across writes.
func (m *Matcher) EdgeCandidateCount(eq *query.Edge) int {
	var predBuf [4]flatPred
	var boundBuf [4]boundPred
	bound, ok := bindPreds(boundBuf[:0], m.g.EdgeColumns(), flattenPreds(predBuf[:0], eq.Preds))
	if !ok {
		return 0
	}
	count := 0
	if len(eq.Types) > 0 {
		for _, t := range eq.Types {
			for _, id := range m.g.EdgesByType(t) {
				if hasAll(bound, int32(id)) {
					count++
				}
			}
		}
	} else {
		for i := 0; i < m.g.NumEdges(); i++ {
			if hasAll(bound, int32(i)) && !m.g.EdgeRemoved(graph.EdgeID(i)) {
				count++
			}
		}
	}
	return count
}

// Find enumerates result graphs for q up to opts.Limit.
func (m *Matcher) Find(q *query.Query, opts Options) []Result {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.FindCtx(c, q, opts)
}

// FindCtx is Find against a caller-owned execution context: FindRows into
// the context's row buffer, converted to result graphs.
func (m *Matcher) FindCtx(c *Ctx, q *query.Query, opts Options) []Result {
	m.FindRows(c, q, opts, &c.found)
	return c.found.Results()
}

// Count returns the number of result graphs C(Q) (Definition 2). A non-zero
// cap stops early and returns cap once reached, which keeps the relaxation
// searches of Chapters 5–6 safe on exploding candidates.
func (m *Matcher) Count(q *query.Query, cap int) int {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.count(c, q, "", cap, 0, 0, false)
}

// CountCtx is Count against a caller-owned execution context — the hot path
// of the relaxation (relax), MCS (mcs), and modification-tree (modtree)
// searches, which issue thousands of counts and reuse one context each.
func (m *Matcher) CountCtx(c *Ctx, q *query.Query, cap int) int {
	return m.count(c, q, "", cap, 0, 0, false)
}

// CountKeyed is CountCtx for callers that already hold q's binary canonical
// key (query.AppendKey) — the rewriting searches dedup executed candidates
// on exactly that key, so passing it through skips re-deriving it. An empty
// key means "derive it here".
func (m *Matcher) CountKeyed(c *Ctx, q *query.Query, key string, cap int) int {
	return m.count(c, q, key, cap, 0, 0, false)
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
	return m.count(c, q, "", cap, 0, 0, false)
}

// CountRange counts embeddings whose root-vertex binding lies in [lo, hi) —
// the shard-local slice of the scatter-gather count, which is what a shard
// evaluates for its vertex-range partition. key is q's binary canonical key
// when the caller already holds one ("" = derive here).
func (m *Matcher) CountRange(q *query.Query, key string, cap, lo, hi int) int {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.count(c, q, key, cap, lo, hi, true)
}

// count is the one count path behind the Count* wrappers. The (key, cap)
// pair is first resolved against the executed-count cache; only a novel pair
// compiles (plan cache) and executes, and concurrent misses on one pair
// share one execution (cache.Do). A repeat query — almost all of them across
// a rewriting search — performs zero compilations and zero allocations.
//
// A ranged count binds the plan's root vertex inside [lo, hi) only. It never
// consults the delegate (a shard answering an RPC must always count locally)
// and is cached under a distinct key shape: a leading 0x00 tag byte —
// canonical query keys always start with a 'v' or 'e' record tag, never 0x00
// — followed by the query key and fixed-width big-endian cap/lo/hi, so range
// entries can never collide with whole-graph (key, cap) entries or with each
// other.
func (m *Matcher) count(c *Ctx, q *query.Query, key string, cap, lo, hi int, ranged bool) int {
	if q.NumVertices() == 0 || ranged && lo >= hi {
		return 0
	}
	if d := m.countDelegate; d != nil && !ranged {
		if n, ok := d(c, q, key, cap); ok {
			return n
		}
	}
	if m.planOff {
		p := m.getPlan(q)
		defer m.plans.Put(p)
		return p.count(c, cap, lo, hi, ranged)
	}
	c.loadKey(q, key)
	if ranged {
		c.cntBuf = append(c.cntBuf[:0], 0x00)
		c.cntBuf = append(c.cntBuf, c.keyBuf...)
		c.cntBuf = binary.BigEndian.AppendUint64(c.cntBuf, uint64(cap))
		c.cntBuf = binary.BigEndian.AppendUint64(c.cntBuf, uint64(lo))
		c.cntBuf = binary.BigEndian.AppendUint64(c.cntBuf, uint64(hi))
	} else {
		c.cntBuf = append(c.cntBuf[:0], c.keyBuf...)
		c.cntBuf = binary.AppendUvarint(c.cntBuf, uint64(cap))
	}
	if n, ok := m.countCache.Get(c.cntBuf); ok {
		return n
	}
	return m.countCache.Do(c.cntBuf, c.Request().Done(), func() (int, int) {
		return m.cachedPlan(c, q).count(c, cap, lo, hi, ranged), 0
	})
}

func (m *Matcher) getPlan(q *query.Query) *Plan {
	p := m.plans.Get()
	m.compileInto(p, q)
	return p
}

func (m *Matcher) getCtx() *Ctx  { return m.ctxs.Get() }
func (m *Matcher) putCtx(c *Ctx) { m.ctxs.Put(c) }

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
