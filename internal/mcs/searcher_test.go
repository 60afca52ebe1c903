//go:build !race

// Byte counts under the race detector include its own bookkeeping.

package mcs_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestMCSSearcherReuse: on the service benchmark's 16 hot specs a Searcher
// that has run before returns what a fresh BoundedMCS returns, and a run on
// it no longer pays for what the one-shot form builds per call — an executor
// with a matching context whose visited bitsets are sized to the data graph.
func TestMCSSearcherReuse(t *testing.T) {
	render := func(ex mcs.Explanation) string {
		return fmt.Sprintf("card=%d satisfied=%v traversals=%d path=%v\n%s\n%s",
			ex.Cardinality, ex.Satisfied, ex.Traversals, ex.Path, ex.MCS.Canonical(), ex.Differential.Canonical())
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, ds := range []struct {
		name    string
		g       *graph.Graph
		base    []workload.Named
		failing func(string) (*query.Query, error)
	}{
		{"ldbc", datagen.LDBC(datagen.DefaultLDBC()), workload.LDBCQueries(), workload.FailingVariant},
		{"dbpedia", datagen.DBpedia(datagen.DefaultDBpedia()), workload.DBpediaQueries(), workload.DBpediaFailingVariant},
	} {
		m := match.New(ds.g)
		st := stats.New(m)
		bitsets := uint64(8 * ((ds.g.NumVertices()+63)/64 + (ds.g.NumEdges()+63)/64))
		opts := mcs.Options{Control: search.Control{MaxExecuted: 150}, UseWCC: true}
		reused := mcs.New(m, st)
		for _, nq := range ds.base {
			failing, err := ds.failing(nq.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []struct {
				q      *query.Query
				bounds metrics.Interval
			}{{failing, metrics.AtLeastOne}, {nq.Build(), metrics.Interval{Lower: 1, Upper: 3}}} {
				want := render(mcs.BoundedMCS(m, st, spec.q, spec.bounds, opts)) // also warms every cache
				var own *mcs.Searcher
				var got, again string
				first := allocated(func() {
					own = mcs.New(m, st)
					got = render(own.BoundedMCS(spec.q, spec.bounds, opts))
				})
				second := allocated(func() { again = render(own.BoundedMCS(spec.q, spec.bounds, opts)) })
				if shared := render(reused.BoundedMCS(spec.q, spec.bounds, opts)); got != want || again != want || shared != want {
					t.Errorf("%s %s %+v: fresh\n%s\nsearcher's first run\n%s\nits second\n%s\nshared searcher\n%s", ds.name, nq.Name, spec.bounds, want, got, again, shared)
				}
				if first < second+bitsets {
					t.Errorf("%s %s %+v: first run allocated %d bytes, second %d: reuse should save at least the context's bitsets (%d bytes)",
						ds.name, nq.Name, spec.bounds, first, second, bitsets)
				}
			}
		}
	}
}
