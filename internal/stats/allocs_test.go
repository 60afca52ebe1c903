//go:build !race

// Under the race detector sync.Pool drops a share of what is put back, so the
// pooled key buffer is allocated afresh now and then.

package stats

import (
	"testing"

	"repro/internal/match"
	"repro/internal/query"
)

// TestKeyedStatisticsAllocsZero pins the warm scoring path of the coarse
// search: estimate and average Path(1) of a candidate under its canonical
// key — every statistic a hit, every statistics key cut out of that key —
// allocate nothing. The query has a cycle, a shared tree vertex, a second
// component and an isolated vertex, so every branch of the estimate runs.
func TestKeyedStatisticsAllocsZero(t *testing.T) {
	c := New(match.New(testGraph()))
	q := personUniCity()
	q.AddEdge(0, 1, []string{"worksAt"}, map[string]query.Predicate{"sinceYear": query.AtLeast(2002)})
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "age": query.AtMost(30)})
	q.AddEdge(p, q.AddVertex(nil), []string{"knows"}, nil)
	q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	if n := q.NumVertices() + q.NumEdges(); n > 16 {
		t.Fatalf("%d elements", n)
	}
	key := q.Key()
	est, avg := c.Estimates(q, key)
	if e2, a2 := c.Estimates(q, ""); e2 != est || a2 != avg || est != c.EstimateCardinality(q) || avg != c.AveragePath1Cardinality(q) {
		t.Fatalf("keyed (%v, %v), unkeyed (%v, %v)", est, avg, e2, a2)
	}
	// A key that is not the query's own is not trusted.
	if e2, a2 := c.Estimates(q, personUniCity().Key()); e2 != est || a2 != avg {
		t.Fatalf("under a foreign key (%v, %v), want (%v, %v)", e2, a2, est, avg)
	}
	if est <= 0 || avg <= 0 {
		t.Fatalf("estimate %v, average Path(1) %v: the query should match", est, avg)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Estimates(q, key) }); allocs != 0 {
		t.Errorf("a warmed keyed estimate allocates %v times, want 0", allocs)
	}
}
