package match

// CandCacheBytes reports the bytes the candidate cache accounts its resident
// entries at, for the tests of package match_test.
func CandCacheBytes(m *Matcher) int { return m.candCache.Stats().Bytes }
