package match

// Executed-count cache: (binary canonical key, count cap) → exact count.
//
// This is the thesis' executed-query cache (App. B.2) lifted from one
// search run to the whole matcher: counting is deterministic over the
// frozen data graph, so a (query, cap) pair that any search — or any prior
// run — already counted never re-executes. The per-search executed maps
// stay (they also drive the CacheHits counters and candidate dedup); this
// layer catches the repeats they cannot see: the same candidates generated
// by different runs, different searches, and the statistics collectors'
// Path(n) probes. A miss compiles the query into the counting context's own
// plan; no compiled plan is kept between executions.
const countCacheCap = 16 << 12

// CountCacheStats reports the executed-count cache's hit and miss counters
// and resident entries. Every miss is exactly one compilation and one
// execution.
func (m *Matcher) CountCacheStats() (hits, misses, entries int) {
	return m.countCache.Stats().Counts()
}

// SetCountCache enables or disables the executed-count cache (enabled by
// default). Disabling compiles and executes every count; the differential
// tests use it to prove cached and uncached runs produce byte-identical
// explanations. Not safe to toggle while matches are in flight.
func (m *Matcher) SetCountCache(enabled bool) { m.countOff = !enabled }
