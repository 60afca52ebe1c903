package repro_test

import (
	"testing"

	"repro"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestFigureShape asserts what the reproduced figures are there to show, in
// the thesis' own cost currency — executed candidates, which no machine and
// no cache state can move — on the evaluation workload itself, set up as
// cmd/benchrunner sets it up (workers 1; the searches are byte-identical at
// any worker count). A speed-up that bends a figure fails here; the relax
// and modtree packages' own TestStatisticsPrioritiesBeatRandomOnExecutions
// and TestTSTBeatsExhaustiveOnExecutions cover toy graphs only.
func TestFigureShape(t *testing.T) {
	ldbc, dbpedia := setup()

	// Fig. 5.A (§5.5.1): the statistics-guided priorities find the first
	// solution after no more executions than the seeded random priority, on
	// every built-in's failing variant.
	t.Run("fig5.priority", func(t *testing.T) {
		rows := 0
		run := func(g *repro.Graph, nqs []workload.Named, failing func(string) (*query.Query, error)) {
			m := match.New(g)
			st := stats.New(m)
			for _, nq := range nqs {
				q, err := failing(nq.Name)
				if err != nil {
					t.Fatal(err)
				}
				rw := relax.New(m, st)
				executed := func(p relax.Priority) int {
					out := rw.Rewrite(q, relax.Options{Control: search.Control{Workers: 1}, Priority: p, MaxSolutions: 1, Seed: 7})
					if len(out.Solutions) == 0 {
						t.Fatalf("%s, %s: no solution after %d executions", nq.Name, p, out.Executed)
					}
					return out.Executed
				}
				random := executed(relax.PriorityRandom)
				for _, p := range []relax.Priority{relax.PriorityEstimatedCardinality, relax.PriorityCombined} {
					if n := executed(p); n > random {
						t.Errorf("%s: %s executed %d candidates, random %d", nq.Name, p, n, random)
					}
				}
				rows++
			}
		}
		run(ldbc, workload.LDBCQueries(), workload.FailingVariant)
		run(dbpedia, workload.DBpediaQueries(), workload.DBpediaFailingVariant)
		if rows != 8 {
			t.Fatalf("checked %d queries, want the 8 built-ins", rows)
		}
	})

	// Fig. 6.A (§6.4.2): over four LDBC queries × four cardinality factors at
	// budget 150, TRAVERSESEARCHTREE executes no more candidates than the
	// exhaustive baseline, and ends no farther from the goal.
	t.Run("fig6.baseline", func(t *testing.T) {
		m := match.New(ldbc)
		st := stats.New(m)
		dom := stats.BuildDomain(ldbc, 16)
		rows := 0
		for _, nq := range workload.LDBCQueries() {
			for _, factor := range workload.CardinalityFactors {
				cthr := workload.Threshold(nq.C1, factor)
				goal := metrics.Interval{Lower: cthr} // too few answers: at least cthr
				if factor < 1 {
					goal = metrics.Interval{Lower: 1, Upper: cthr} // too many: at most cthr
				}
				s := modtree.New(m, st)
				opts := modtree.Options{Control: search.Control{Workers: 1, MaxExecuted: 150}, Goal: goal, Domain: dom}
				tst := s.TraverseSearchTree(nq.Build(), opts)
				ex := s.Exhaustive(nq.Build(), opts)
				if tst.Executed > ex.Executed || tst.Best.Distance > ex.Best.Distance {
					t.Errorf("%s ×%.1f: TST executed %d (distance %d), exhaustive %d (distance %d)",
						nq.Name, factor, tst.Executed, tst.Best.Distance, ex.Executed, ex.Best.Distance)
				}
				rows++
			}
		}
		if rows != 16 {
			t.Fatalf("checked %d rows, want 16", rows)
		}
	})
}
