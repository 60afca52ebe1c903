package match

import "repro/internal/query"

// Compiled-plan cache.
//
// The rewriting searches of Chapters 4–6 execute thousands of query
// candidates, and — because of the executed-query dedup, restarts, and the
// statistics probes — almost all of those candidates repeat across a search
// (and across searches on the same matcher). Before this cache every
// CountCtx/FindCtx call recompiled a full Plan: re-resolving candidate
// lists, re-flattening predicates, and re-planning the step order. The
// cache maps a query's binary canonical key (query.AppendKey) to a shared
// read-only *Plan, so a repeat query pays one map lookup instead of a
// compilation. Plans are immutable after publication and may be executed
// concurrently against per-goroutine contexts, which makes the cache safe
// for concurrent requests. Bounded like the candidate cache:
// steady-state workloads — whose distinct candidate queries number in the
// hundreds — stay permanently warm; adversarial query streams stay bounded.
// The entry bound is what binds: a plan holds a dozen small pointer-rich
// slices, and 1024 of them is about the residency the byte bound allowed
// while every plan was accounted a whole-graph bitset per vertex. At 8192
// entries a never-repeating query stream kept several times as many plans,
// for half again the collector's CPU and no hits.
const (
	planCacheCap      = 1024
	planCacheMaxBytes = 64 << 20
)

// planBytes approximates a cached plan's resident size, including the
// candidate sets it references (their windowed bitsets and, on an interleaved
// posting path, their order lists). Those are shared with the candidate cache
// — counting them here double-counts while both caches hold them — but a plan
// can outlive a candidate-cache epoch reset, at which point it pins entries
// no longer accounted anywhere; overcounting keeps planCacheMaxBytes a real
// bound on what the plan cache can pin.
func planBytes(keyLen int, p *Plan) int {
	n := keyLen + 96
	n += len(p.vids)*8 + len(p.eids)*8
	for i := range p.ops {
		op := &p.ops[i]
		n += 48 + len(op.types)*8
		for j := range op.epreds { // the codes belong to the graph
			n += 48 + len(op.epreds[j].admit)*8
		}
	}
	for s := 0; s < p.nv; s++ {
		n += len(p.cands[s].preds)*32 + len(p.cands[s].bits)*8 + len(p.cands[s].order)*4
	}
	return n
}

// Executed-count cache: (binary canonical key, count cap) → exact count.
//
// This is the thesis' executed-query cache (App. B.2) lifted from one
// search run to the whole matcher: counting is deterministic over the
// frozen data graph, so a (query, cap) pair that any search — or any prior
// run — already counted never re-executes. The per-search executed maps
// stay (they also drive the CacheHits counters and candidate dedup); this
// layer catches the repeats they cannot see: the same candidates generated
// by different runs, different searches, and the statistics collectors'
// Path(n) probes.
const countCacheCap = 16 << 12

// CountCacheStats reports the executed-count cache's hit and miss counters
// and resident entries. Every miss is exactly one execution.
func (m *Matcher) CountCacheStats() (hits, misses, entries int) {
	return m.countCache.Stats().Counts()
}

// SetPlanCache enables or disables the compiled-plan cache and the
// executed-count cache together (enabled by default). Disabling forces
// every execution back onto the compile-and-execute-per-call pooled path;
// the differential tests use it to prove cached and uncached runs produce
// byte-identical explanations. Not safe to toggle while matches are in
// flight.
func (m *Matcher) SetPlanCache(enabled bool) { m.planOff = !enabled }

// PlanCacheStats reports the plan cache's hit and miss counters and its
// resident entry count. Every miss is exactly one compilation, so a
// hits-only delta between two points proves the executions in between
// compiled nothing.
func (m *Matcher) PlanCacheStats() (hits, misses, entries int) {
	return m.planCache.Stats().Counts()
}

// cachedPlan resolves the shared compiled plan for the query whose binary
// canonical key sits in c.keyBuf (a reused buffer, so steady-state lookups
// allocate nothing). A miss compiles and Puts the plan, so every plan-cache
// miss is exactly one compilation.
func (m *Matcher) cachedPlan(c *Ctx, q *query.Query) *Plan {
	if p, ok := m.planCache.Get(c.keyBuf); ok {
		return p
	}
	p := &Plan{}
	m.compileInto(p, q, &c.compile)
	m.planCache.Put(c.keyBuf, p, planBytes(len(c.keyBuf), p))
	return p
}
