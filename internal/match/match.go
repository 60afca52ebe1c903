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
// per-vertex candidate sets resolved once, selectivity-ordered steps) and
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
// result graphs. The original backtracking engine is retained as
// ReferenceCount/ReferenceFind for differential testing; it decodes the
// attribute columns value by value and reads nothing the compiled engine
// binds, indexes or caches.
//
// Counting has one path. Count, CountCtx and CountKeyed resolve (canonical
// key, cap) against the executed-count cache and, on a miss, compile the
// query into the context's own plan and run Plan.Count over the whole graph;
// no caller can intercept a count or restrict it to part of the graph.
// Compiled plans are not cached: a count-cache hit needs none, and compiling
// over warm candidate sets costs about what deriving the query's canonical
// key and looking a plan up under it would.
package match

import (
	"encoding/binary"
	"slices"
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
// Find/Count entry points draw execution contexts, each with the plan it
// compiles into, from an internal pool, while the *Ctx variants let hot
// callers pin a reusable context explicitly.
type Matcher struct {
	g    *graph.Graph
	ctxs cache.FreeList[*Ctx]

	// The two caches are instances of internal/cache (sharding, epoch
	// eviction, counters and carry-over live there, the key encodings in
	// internal/query); what this package adds is the bounds below.
	//
	// candCache: predicate-set key (query.Vertex.AppendPredKey) → shared
	// candidate set, so compiling the thousands of query variants a
	// rewriting search executes rescans the graph only for novel predicates;
	// the vertex cardinalities of stats.Collector are its entries' sizes.
	// countCache: (binary canonical key, cap) → exact count — the App. B.2
	// executed-query cache shared across searches and runs, and the home of
	// the Path(n) statistics of stats.Collector (exact counts, cap 0).
	// countOff bypasses it (see countcache.go).
	candCache  *cache.Cache[*candEntry]
	countCache *cache.Cache[int]
	countOff   bool
}

// New returns a matcher over g. The graph's packed adjacency is frozen here
// so concurrent matching never races on the lazy build.
func New(g *graph.Graph) *Matcher {
	g.Freeze()
	m := &Matcher{
		g:          g,
		candCache:  cache.New[*candEntry](candCacheCap, candCacheMaxBytes),
		countCache: cache.New[int](countCacheCap, 0),
	}
	m.ctxs.New = func() *Ctx { return newCtx(g) }
	return m
}

// Graph returns the underlying data graph.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// CandidateCount returns the number of data vertices matching vq
// (the vertex cardinality statistic of §5.2.2). It is one lookup in the
// matcher's candidate cache — the entry a compiled plan of vq shares — so
// the statistics rescan the graph only for novel predicate sets.
func (m *Matcher) CandidateCount(vq *query.Vertex) int {
	return m.candidateEntry(vq).n
}

// candidateEntry resolves vq's shared candidate-cache entry in a pooled
// context's compile scratch. The entry is shared: read only.
func (m *Matcher) candidateEntry(vq *query.Vertex) *candEntry {
	c := m.getCtx()
	defer m.putCtx(c)
	return m.candidates(&c.compile, vq)
}

// EdgeCandidateCount returns the number of data edges matching eq's type and
// predicates, ignoring endpoints (the edge cardinality statistic of §5.2.2):
// a plain scan of the edge lists of each listed type, a type listed twice
// scanned once.
func (m *Matcher) EdgeCandidateCount(eq *query.Edge) int {
	var predBuf [4]flatPred
	var boundBuf [4]boundPred
	bound, ok := bindPreds(boundBuf[:0], m.g.EdgeColumns(), flattenPreds(predBuf[:0], eq.Preds))
	if !ok {
		return 0
	}
	count := 0
	if len(eq.Types) > 0 {
		for i, t := range eq.Types {
			if slices.Contains(eq.Types[:i], t) {
				continue
			}
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
	return m.CountCtx(c, q, cap)
}

// CountCtx is Count against a caller-owned execution context — the hot path
// of the relaxation (relax), MCS (mcs), and modification-tree (modtree)
// searches, which issue thousands of counts and reuse one context each.
func (m *Matcher) CountCtx(c *Ctx, q *query.Query, cap int) int {
	return CountKeyed(m, c, "", cap, func() *query.Query { return q })
}

// CountKeyed is the one count path. It counts, on m and against c, the query
// whose binary canonical key (query.AppendKey) the caller already holds: the
// rewriting searches dedup executed candidates on exactly that key, and the
// Path(n) statistics cut their fragment keys out of their query's key. The
// (key, cap) pair is first resolved against the executed-count cache; build
// returns the query and runs only when a novel pair compiles into c's plan,
// executes and is Put, or when key is empty and must be derived. A repeat
// query — almost all of them across a rewriting search — performs zero
// compilations and zero allocations, and builds no query; on a warm context
// a miss allocates nothing either but the cache entry.
func CountKeyed[K ~string | ~[]byte](m *Matcher, c *Ctx, key K, cap int, build func() *query.Query) int {
	var q *query.Query
	if len(key) == 0 || m.countOff {
		if q = build(); q.NumVertices() == 0 {
			return 0
		}
		if m.countOff {
			return m.compile(c, q).Count(c, cap)
		}
		c.cntBuf = q.AppendKey(c.cntBuf[:0])
	} else {
		c.cntBuf = append(c.cntBuf[:0], key...)
	}
	c.cntBuf = binary.AppendUvarint(c.cntBuf, uint64(cap))
	if n, ok := m.countCache.Get(c.cntBuf); ok {
		return n
	}
	if q == nil {
		q = build()
	}
	n := m.compile(c, q).Count(c, cap)
	m.countCache.Put(c.cntBuf, n, 0)
	return n
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
