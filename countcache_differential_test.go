// Differential tests for the executed-count cache: with the cache enabled
// (the default) every explanation search — the relaxation rewriter under all
// five priority functions, the modification-tree searches, MCS discovery in
// all variants, and the assembled Engine.Explain — must produce results,
// ranks, traces, and counters byte-identical to a run with the cache
// disabled (every count compiled and executed). Caching may only change
// wall-clock time, never an explanation.
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cachePair returns two matchers over the same graph, count cache on and off.
func cachePair(g *repro.Graph) (on, off *match.Matcher) {
	on = match.New(g)
	off = match.New(g)
	off.SetCountCache(false)
	return on, off
}

func relaxFingerprint(out relax.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "executed=%d generated=%d cachehits=%d trace=%v\n",
		out.Executed, out.Generated, out.CacheHits, out.Trace)
	for i, s := range out.Solutions {
		fmt.Fprintf(&b, "solution %d: card=%d syn=%.9f score=%.9f ops=%v\n%s\n",
			i, s.Cardinality, s.Syntactic, s.Score, s.Ops, s.Query.Canonical())
	}
	return b.String()
}

func modtreeFingerprint(res modtree.Result) string {
	return fmt.Sprintf("executed=%d generated=%d pruned=%d satisfied=%v trace=%v best{card=%d dist=%d syn=%.9f ops=%v}\n%s",
		res.Executed, res.Generated, res.Pruned, res.Satisfied, res.Trace,
		res.Best.Cardinality, res.Best.Distance, res.Best.Syntactic, res.Best.Ops,
		res.Best.Query.Canonical())
}

func mcsFingerprint(ex mcs.Explanation) string {
	return fmt.Sprintf("card=%d satisfied=%v traversals=%d path=%v\n%s\n%s",
		ex.Cardinality, ex.Satisfied, ex.Traversals, ex.Path,
		ex.MCS.Canonical(), ex.Differential.Canonical())
}

// failingVariantFor resolves the why-empty variant of a named query on
// either data set.
func failingVariantFor(t *testing.T, dataset string, name string) *repro.Query {
	t.Helper()
	var (
		q   *repro.Query
		err error
	)
	if dataset == "ldbc" {
		q, err = workload.FailingVariant(name)
	} else {
		q, err = workload.DBpediaFailingVariant(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCountCacheDifferentialRelax(t *testing.T) {
	lg, _ := setup()
	on, off := cachePair(lg)
	stOn, stOff := stats.New(on), stats.New(off)
	prios := []relax.Priority{
		relax.PriorityRandom, relax.PrioritySyntactic, relax.PriorityEstimatedCardinality,
		relax.PriorityAvgPath1, relax.PriorityCombined,
	}
	for _, nq := range workload.LDBCQueries() {
		q, err := workload.FailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prios {
			opts := relax.Options{Control: search.Control{MaxExecuted: 60}, Priority: p, MaxSolutions: 3, Seed: 7}
			got := relaxFingerprint(relax.New(on, stOn).Rewrite(q, opts))
			want := relaxFingerprint(relax.New(off, stOff).Rewrite(q, opts))
			if got != want {
				t.Errorf("%s/%v: count cache changed the rewriting:\n--- cache off\n%s--- cache on\n%s", nq.Name, p, want, got)
			}
		}
	}
	if hits, _, _ := on.CountCacheStats(); hits == 0 {
		t.Fatal("cached run never hit the count cache — the differential proves nothing")
	}
}

func TestCountCacheDifferentialModtree(t *testing.T) {
	lg, _ := setup()
	on, off := cachePair(lg)
	stOn, stOff := stats.New(on), stats.New(off)
	dom := stats.BuildDomain(lg, 16)
	sOn, sOff := modtree.New(on, stOn), modtree.New(off, stOff)
	for _, nq := range workload.LDBCQueries() {
		q := nq.Build()
		c1 := on.Count(q, 0)
		goals := []metrics.Interval{
			{Lower: workload.Threshold(c1, 2)},
			{Lower: 1, Upper: workload.Threshold(c1, 1)},
		}
		for gi, goal := range goals {
			opts := modtree.Options{Control: search.Control{MaxExecuted: 80}, Goal: goal, Domain: dom}
			if got, want := modtreeFingerprint(sOn.TraverseSearchTree(q, opts)), modtreeFingerprint(sOff.TraverseSearchTree(q, opts)); got != want {
				t.Errorf("%s goal %d: count cache changed TST:\n--- cache off\n%s\n--- cache on\n%s", nq.Name, gi, want, got)
			}
			if got, want := modtreeFingerprint(sOn.Exhaustive(q, opts)), modtreeFingerprint(sOff.Exhaustive(q, opts)); got != want {
				t.Errorf("%s goal %d: count cache changed Exhaustive:\n--- cache off\n%s\n--- cache on\n%s", nq.Name, gi, want, got)
			}
			if got, want := modtreeFingerprint(sOn.RandomWalk(q, opts, 7)), modtreeFingerprint(sOff.RandomWalk(q, opts, 7)); got != want {
				t.Errorf("%s goal %d: count cache changed RandomWalk:\n--- cache off\n%s\n--- cache on\n%s", nq.Name, gi, want, got)
			}
		}
	}
}

func TestCountCacheDifferentialMCS(t *testing.T) {
	_, dg := setup()
	on, off := cachePair(dg)
	stOn, stOff := stats.New(on), stats.New(off)
	for _, nq := range workload.DBpediaQueries() {
		q := failingVariantFor(t, "dbpedia", nq.Name)
		for _, opts := range []mcs.Options{{}, {UseWCC: true}, {SinglePath: true}, {UseWCC: true, SinglePath: true}} {
			got := mcsFingerprint(mcs.BoundedMCS(on, stOn, q, metrics.AtLeastOne, opts))
			want := mcsFingerprint(mcs.BoundedMCS(off, stOff, q, metrics.AtLeastOne, opts))
			if got != want {
				t.Errorf("%s opts %+v: count cache changed MCS:\n--- cache off\n%s\n--- cache on\n%s", nq.Name, opts, want, got)
			}
		}
	}
}

// explainFingerprint serializes the full report including rewriting queries.
func explainFingerprint(rep *repro.Report) string {
	var b strings.Builder
	b.WriteString(rep.Summary())
	for _, rw := range rep.Rewritings {
		fmt.Fprintf(&b, "\n%s", rw.Query.Canonical())
	}
	return b.String()
}

func TestCountCacheDifferentialExplain(t *testing.T) {
	lg, _ := setup()
	engOn := repro.NewEngine(lg)
	engOff := repro.NewEngine(lg)
	engOff.Matcher().SetCountCache(false)
	for _, nq := range workload.LDBCQueries() {
		q, err := workload.FailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		repOn, err := engOn.Explain(q, repro.ExplainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		repOff, err := engOff.Explain(q, repro.ExplainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := explainFingerprint(repOn), explainFingerprint(repOff); got != want {
			t.Errorf("%s: count cache changed Explain:\n--- cache off\n%s\n--- cache on\n%s", nq.Name, want, got)
		}
		tooMany := nq.Build()
		bounds := repro.Interval{Lower: 1, Upper: workload.Threshold(nq.C1, 0.5)}
		repOn, err = engOn.Explain(tooMany, repro.ExplainOptions{Expected: bounds})
		if err != nil {
			t.Fatal(err)
		}
		repOff, err = engOff.Explain(tooMany, repro.ExplainOptions{Expected: bounds})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := explainFingerprint(repOn), explainFingerprint(repOff); got != want {
			t.Errorf("%s too-many: count cache changed Explain:\n--- cache off\n%s\n--- cache on\n%s", nq.Name, want, got)
		}
	}
	if hits, _, _ := engOn.Matcher().CountCacheStats(); hits == 0 {
		t.Fatal("cached engine never hit the count cache — the differential proves nothing")
	}
}
