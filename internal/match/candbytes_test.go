package match_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestCandidateCacheBytes pins what the candidate sets of the eight built-in
// queries and their failing variants cost on the benchmark's graphs (-scale
// 8: LDBC 30 k vertices, DBpedia 20 k): each set is a bitset over its own
// members' span, and the two candidate caches account 28 681 bytes for
// them. With a bitset over the whole graph and a second copy of the ids per
// entry they accounted 226 621 bytes. The bound leaves twice the headroom.
func TestCandidateCacheBytes(t *testing.T) {
	const maxBytes = 2 * 28681
	dcfg := datagen.DefaultDBpedia()
	dcfg.Entities *= 8
	got, sets, entries := 0, 0, 0
	for _, ds := range []struct {
		g       *graph.Graph
		base    []workload.Named
		failing func(string) (*query.Query, error)
	}{
		{datagen.LDBC(datagen.DefaultLDBC().Scaled(8)), workload.LDBCQueries(), workload.FailingVariant},
		{datagen.DBpedia(dcfg), workload.DBpediaQueries(), workload.DBpediaFailingVariant},
	} {
		m := match.New(ds.g)
		for _, nq := range ds.base {
			fq, err := ds.failing(nq.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []*query.Query{nq.Build(), fq} {
				for _, v := range q.Vertices() {
					m.CandidateCount(v)
					sets++
				}
			}
		}
		_, _, n := m.CandCacheStats()
		got, entries = got+match.CandCacheBytes(m), entries+n
	}
	t.Logf("%d query vertices, %d candidate sets resident in %d bytes", sets, entries, got)
	if got > maxBytes {
		t.Fatalf("the candidate caches hold %d bytes, want at most %d", got, maxBytes)
	}
}
