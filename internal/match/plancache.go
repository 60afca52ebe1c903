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
// for the parallel searches' worker pools. Bounded like the candidate cache:
// steady-state workloads — whose distinct candidate queries number in the
// hundreds — stay permanently warm; adversarial query streams stay bounded.
const (
	planCacheCap      = 8192
	planCacheMaxBytes = 64 << 20
)

// planBytes approximates a cached plan's resident size, including the
// candidate lists and bitsets it references. Those are shared with the
// candidate cache — counting them here double-counts while both caches hold
// them — but a plan can outlive a candidate-cache epoch reset, at which
// point it pins entries no longer accounted anywhere; overcounting keeps
// planCacheMaxBytes a real bound on what the plan cache can pin.
func planBytes(keyLen int, p *Plan) int {
	n := keyLen + 96
	n += len(p.vids)*8 + len(p.eids)*8
	for i := range p.ops {
		op := &p.ops[i]
		n += 48 + len(op.types)*4
		for j := range op.epreds { // the codes belong to the graph
			n += 48 + len(op.epreds[j].admit)*8
		}
	}
	for s := 0; s < p.nv; s++ {
		n += len(p.vpreds[s])*32 + len(p.cands[s])*4 + len(p.candBits[s])*8
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

// CoalesceStats reports the stampede counters over the three caches: waits
// is the number of lookups that parked behind another request's in-flight
// candidate resolution, compile or count instead of duplicating it, shared
// the number of those computations whose result was delivered to at least
// one waiter.
func (m *Matcher) CoalesceStats() (waits, shared int64) {
	a, b, c := m.candCache.Stats(), m.planCache.Stats(), m.countCache.Stats()
	return a.Waits + b.Waits + c.Waits, a.Shared + b.Shared + c.Shared
}

// loadKey materializes q's binary canonical key into c.keyBuf, copying the
// caller's precomputed key when one is given (the searches dedup executed
// candidates on exactly that key) and deriving it otherwise. Either way the
// buffer is reused, so steady-state lookups allocate nothing.
func (c *Ctx) loadKey(q *query.Query, key string) {
	if key == "" {
		c.keyBuf = q.AppendKey(c.keyBuf[:0])
	} else {
		c.keyBuf = append(c.keyBuf[:0], key...)
	}
}

// cachedPlan resolves the shared compiled plan for the query whose binary
// canonical key sits in c.keyBuf (see loadKey). Concurrent misses on one
// novel key share one compilation (cache.Do), so every plan-cache miss is
// exactly one compilation even under a cold burst.
func (m *Matcher) cachedPlan(c *Ctx, q *query.Query) *Plan {
	if p, ok := m.planCache.Get(c.keyBuf); ok {
		return p
	}
	return m.planCache.Do(c.keyBuf, c.Request().Done(), func() (*Plan, int) {
		p := &Plan{}
		m.compileInto(p, q)
		return p, planBytes(len(c.keyBuf), p)
	})
}
