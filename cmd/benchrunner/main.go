// Command benchrunner regenerates every table and figure of the thesis'
// evaluation on the synthetic data sets (see DESIGN.md experiment index and
// EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp tab-a1
//	benchrunner -exp fig3.7 | fig3.8 | fig3.9 | fig3.10
//	benchrunner -exp fig4.discover | fig4.size | fig4.bounded
//	benchrunner -exp fig5.priority | fig5.convergence | fig5.induced |
//	            fig5.user | fig5.resources
//	benchrunner -exp fig6.baseline | fig6.topology
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/workload"
)

type env struct {
	ldbc    *matchEnv
	dbpedia *matchEnv

	// Search-kernel counter sinks, one per explanation family, accumulated
	// across all experiments of the process and printed in report headers.
	kRelax   search.Metrics
	kModtree search.Metrics
	kMCS     search.Metrics
}

// relaxCtl/modCtl/mcsCtl assemble the shared kernel-control block of a
// search run: the per-family metrics sink and an optional execution budget
// (0 = the search's default).
func (e *env) relaxCtl(maxExecuted int) search.Control {
	return search.Control{MaxExecuted: maxExecuted, Metrics: &e.kRelax}
}

func (e *env) modCtl(maxExecuted int) search.Control {
	return search.Control{MaxExecuted: maxExecuted, Metrics: &e.kModtree}
}

func (e *env) mcsCtl() search.Control {
	return search.Control{Metrics: &e.kMCS}
}

type matchEnv struct {
	m   *match.Matcher
	st  *stats.Collector
	dom *stats.Domain
}

func newEnv() *env {
	lg := datagen.LDBC(datagen.DefaultLDBC())
	dg := datagen.DBpedia(datagen.DefaultDBpedia())
	lm := match.New(lg)
	dm := match.New(dg)
	return &env{
		ldbc:    &matchEnv{m: lm, st: stats.New(lm), dom: stats.BuildDomain(lg, 16)},
		dbpedia: &matchEnv{m: dm, st: stats.New(dm), dom: stats.BuildDomain(dg, 16)},
	}
}

// cacheStats summarizes the matcher-level cache counters of both data sets
// and the search-kernel counters per explanation family for report headers:
// everything accumulated so far in this process. Kernel counters read
// executions(x) / dedup hits(h).
func (e *env) cacheStats() string {
	ph, pm := 0, 0
	ch, cm := 0, 0
	for _, me := range []*matchEnv{e.ldbc, e.dbpedia} {
		h, m, _ := me.m.PlanCacheStats()
		ph, pm = ph+h, pm+m
		h, m, _ = me.m.CountCacheStats()
		ch, cm = ch+h, cm+m
	}
	k := func(name string, m *search.Metrics) string {
		c := m.Snapshot()
		return fmt.Sprintf("%s %dx/%dh", name, c.Executions, c.DedupHits)
	}
	return fmt.Sprintf("plan-cache %dh/%dm, count-cache %dh/%dm; kernel %s, %s, %s",
		ph, pm, ch, cm, k("relax", &e.kRelax), k("modtree", &e.kModtree), k("mcs", &e.kMCS))
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc comment)")
	flag.Parse()
	e := newEnv()
	experiments := map[string]func(*env){
		"tab-a1":           tabA1,
		"fig3.7":           fig37,
		"fig3.8":           fig38,
		"fig3.9":           fig39,
		"fig3.10":          fig310,
		"fig4.discover":    fig4Discover,
		"fig4.size":        fig4Size,
		"fig4.bounded":     fig4Bounded,
		"fig5.priority":    fig5Priority,
		"fig5.convergence": fig5Convergence,
		"fig5.induced":     fig5Induced,
		"fig5.user":        fig5User,
		"fig5.resources":   fig5Resources,
		"fig6.baseline":    fig6Baseline,
		"fig6.topology":    fig6Topology,
	}
	if *exp == "all" {
		order := make([]string, 0, len(experiments))
		for k := range experiments {
			order = append(order, k)
		}
		sort.Strings(order)
		for _, k := range order {
			experiments[k](e)
			fmt.Println()
		}
		return
	}
	f, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	f(e)
}

// ---------------------------------------------------------------------------

// tabA1 reproduces Table A.1: original cardinalities of LDBC QUERY 1–4.
func tabA1(e *env) {
	fmt.Println("== TAB-A1: LDBC query cardinalities (Table A.1) ==")
	fmt.Printf("%-14s %10s %10s\n", "query", "paper C1", "measured")
	for _, nq := range workload.LDBCQueries() {
		got := e.ldbc.m.Count(nq.Build(), 0)
		fmt.Printf("%-14s %10d %10d\n", nq.Name, nq.PaperC1, got)
	}
}

// randomCandidateSweep generates random explanations for every LDBC query ×
// cardinality factor and hands each (original, candidates, threshold) to f.
func randomCandidateSweep(e *env, n int, f func(nq workload.Named, factor float64, orig *query.Query, cands []*query.Query, cthr int)) {
	for _, nq := range workload.LDBCQueries() {
		orig := nq.Build()
		cands := workload.RandomExplanations(orig, e.ldbc.dom, n, 42)
		for _, factor := range workload.CardinalityFactors {
			f(nq, factor, orig, cands, workload.Threshold(nq.C1, factor))
		}
	}
}

func describeSeries(name string, xs []float64) {
	if len(xs) == 0 {
		fmt.Printf("%s: empty\n", name)
		return
	}
	sort.Float64s(xs)
	q := func(p float64) float64 { return xs[int(p*float64(len(xs)-1))] }
	var sum float64
	for _, x := range xs {
		sum += x
	}
	fmt.Printf("%s: n=%d min=%.3f p25=%.3f med=%.3f p75=%.3f max=%.3f mean=%.3f\n",
		name, len(xs), xs[0], q(0.25), q(0.5), q(0.75), xs[len(xs)-1], sum/float64(len(xs)))
}

// fig37 — ordered syntactic distances of random explanations (Fig. 3.7).
func fig37(e *env) {
	fmt.Println("== FIG-3.7: syntactic distances of random explanations ==")
	randomCandidateSweep(e, 120, func(nq workload.Named, factor float64, orig *query.Query, cands []*query.Query, cthr int) {
		if factor != workload.CardinalityFactors[0] {
			return // syntactic distance is threshold-independent
		}
		var xs []float64
		for _, c := range cands {
			xs = append(xs, metrics.SyntacticDistance(orig, c))
		}
		describeSeries(nq.Name, xs)
	})
}

// fig38 — ordered result distances of random explanations (Fig. 3.8).
func fig38(e *env) {
	fmt.Println("== FIG-3.8: result distances of random explanations ==")
	randomCandidateSweep(e, 40, func(nq workload.Named, factor float64, orig *query.Query, cands []*query.Query, cthr int) {
		origRes := e.ldbc.m.Find(orig, match.Options{Limit: 60})
		var xs []float64
		for _, c := range cands {
			newRes := e.ldbc.m.Find(c, match.Options{Limit: 60})
			xs = append(xs, metrics.ResultSetDistance(origRes, newRes))
		}
		describeSeries(fmt.Sprintf("%s C=%.1f", nq.Name, factor), xs)
	})
}

// fig39 — ordered cardinality distances of random explanations (Fig. 3.9).
func fig39(e *env) {
	fmt.Println("== FIG-3.9: cardinality distances of random explanations ==")
	randomCandidateSweep(e, 40, func(nq workload.Named, factor float64, orig *query.Query, cands []*query.Query, cthr int) {
		var xs []float64
		for _, c := range cands {
			card := e.ldbc.m.Count(c, 20000)
			xs = append(xs, float64(metrics.CardinalityDistance(cthr, card)))
		}
		describeSeries(fmt.Sprintf("%s C=%.1f (thr=%d)", nq.Name, factor, cthr), xs)
	})
}

// fig310 — average result distance per syntactic-distance bucket (§3.2.5).
func fig310(e *env) {
	fmt.Println("== FIG-3.10: avg result distance vs syntactic-distance interval ==")
	type bucket struct {
		sum float64
		n   int
	}
	buckets := map[int]*bucket{}
	randomCandidateSweep(e, 40, func(nq workload.Named, factor float64, orig *query.Query, cands []*query.Query, cthr int) {
		if factor != workload.CardinalityFactors[0] {
			return
		}
		origRes := e.ldbc.m.Find(orig, match.Options{Limit: 60})
		for _, c := range cands {
			syn := metrics.SyntacticDistance(orig, c)
			res := metrics.ResultSetDistance(origRes, e.ldbc.m.Find(c, match.Options{Limit: 60}))
			b := buckets[int(syn*10)]
			if b == nil {
				b = &bucket{}
				buckets[int(syn*10)] = b
			}
			b.sum += res
			b.n++
		}
	})
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("%-18s %8s %6s\n", "syntactic bucket", "avg resΔ", "n")
	for _, k := range keys {
		b := buckets[k]
		fmt.Printf("[%0.1f, %0.1f)          %8.3f %6d\n", float64(k)/10, float64(k+1)/10, b.sum/float64(b.n), b.n)
	}
}

// fig4Discover — DISCOVERMCS optimizations on why-empty variants (§4.5.1).
func fig4Discover(e *env) {
	fmt.Printf("== FIG-4.A: DISCOVERMCS — naive vs WCC vs single-path (%s) ==\n", e.cacheStats())
	fmt.Printf("%-22s %-16s %10s %12s %10s\n", "query", "variant", "traversals", "runtime", "MCS edges")
	run := func(name string, me *matchEnv, q *query.Query) {
		variants := []struct {
			label string
			opts  mcs.Options
		}{
			{"naive", mcs.Options{Control: e.mcsCtl()}},
			{"wcc", mcs.Options{Control: e.mcsCtl(), UseWCC: true}},
			{"single-path", mcs.Options{Control: e.mcsCtl(), SinglePath: true}},
			{"wcc+single", mcs.Options{Control: e.mcsCtl(), UseWCC: true, SinglePath: true}},
		}
		for _, v := range variants {
			start := time.Now()
			ex := mcs.DiscoverMCS(me.m, me.st, q, v.opts)
			fmt.Printf("%-22s %-16s %10d %12s %10d\n", name, v.label, ex.Traversals, time.Since(start).Round(time.Microsecond), ex.MCS.NumEdges())
		}
	}
	for _, nq := range workload.LDBCQueries() {
		q, err := workload.FailingVariant(nq.Name)
		if err != nil {
			panic(err)
		}
		run(nq.Name, e.ldbc, q)
	}
	for _, nq := range workload.DBpediaQueries() {
		q, err := workload.DBpediaFailingVariant(nq.Name)
		if err != nil {
			panic(err)
		}
		run(nq.Name, e.dbpedia, q)
	}
}

// fig4Size — DISCOVERMCS cost vs query size (§4.5.1).
func fig4Size(e *env) {
	fmt.Printf("== FIG-4.B: DISCOVERMCS cost vs query size (failing chains, %s) ==\n", e.cacheStats())
	fmt.Printf("%8s %12s %12s %12s\n", "edges", "naive", "wcc", "single-path")
	for size := 1; size <= 5; size++ {
		q := chainQuery(size)
		naive := mcs.DiscoverMCS(e.ldbc.m, e.ldbc.st, q, mcs.Options{Control: e.mcsCtl()})
		wcc := mcs.DiscoverMCS(e.ldbc.m, e.ldbc.st, q, mcs.Options{Control: e.mcsCtl(), UseWCC: true})
		single := mcs.DiscoverMCS(e.ldbc.m, e.ldbc.st, q, mcs.Options{Control: e.mcsCtl(), SinglePath: true})
		fmt.Printf("%8d %12d %12d %12d\n", size, naive.Traversals, wcc.Traversals, single.Traversals)
	}
}

// chainQuery builds a person-knows chain of the given length whose last hop
// carries an unsatisfiable constraint.
func chainQuery(edges int) *query.Query {
	q := query.New()
	prev := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	for i := 0; i < edges; i++ {
		preds := map[string]query.Predicate{"type": query.EqS("person")}
		if i == edges-1 {
			preds["age"] = query.AtLeast(200) // nobody is that old
		}
		next := q.AddVertex(preds)
		q.AddEdge(prev, next, []string{"knows"}, nil)
		prev = next
	}
	return q
}

// fig4Bounded — BOUNDEDMCS for the too-many-answers problem (§4.5.2).
func fig4Bounded(e *env) {
	fmt.Printf("== FIG-4.C: BOUNDEDMCS under too-many thresholds (%s) ==\n", e.cacheStats())
	fmt.Printf("%-14s %8s %10s %12s %10s %10s\n", "query", "factor", "threshold", "traversals", "MCS edges", "satisfied")
	for _, nq := range workload.LDBCQueries() {
		for _, factor := range []float64{0.2, 0.5} {
			cthr := workload.Threshold(nq.C1, factor)
			bounds := metrics.Interval{Lower: 1, Upper: cthr}
			ex := mcs.BoundedMCS(e.ldbc.m, e.ldbc.st, nq.Build(), bounds, mcs.Options{Control: e.mcsCtl(), UseWCC: true})
			fmt.Printf("%-14s %8.1f %10d %12d %10d %10v\n", nq.Name, factor, cthr, ex.Traversals, ex.MCS.NumEdges(), ex.Satisfied)
		}
	}
}

// fig5Priority — executed candidates per priority function (§5.5.1).
func fig5Priority(e *env) {
	fmt.Printf("== FIG-5.A: priority functions of the query-candidate selector (%s) ==\n", e.cacheStats())
	fmt.Printf("%-22s %-22s %10s %10s %12s\n", "query", "priority", "executed", "solutions", "runtime")
	prios := []relax.Priority{relax.PriorityRandom, relax.PrioritySyntactic, relax.PriorityEstimatedCardinality, relax.PriorityAvgPath1, relax.PriorityCombined}
	run := func(name string, me *matchEnv, q *query.Query) {
		rw := relax.New(me.m, me.st)
		for _, p := range prios {
			start := time.Now()
			out := rw.Rewrite(q, relax.Options{Control: e.relaxCtl(0), Priority: p, MaxSolutions: 1, Seed: 7})
			fmt.Printf("%-22s %-22s %10d %10d %12s\n", name, p, out.Executed, len(out.Solutions), time.Since(start).Round(time.Microsecond))
		}
	}
	for _, nq := range workload.LDBCQueries() {
		q, _ := workload.FailingVariant(nq.Name)
		run(nq.Name, e.ldbc, q)
	}
	for _, nq := range workload.DBpediaQueries() {
		q, _ := workload.DBpediaFailingVariant(nq.Name)
		run(nq.Name, e.dbpedia, q)
	}
}

// fig5Convergence — best-so-far cardinality over executed candidates
// (§5.5.2).
func fig5Convergence(e *env) {
	fmt.Printf("== FIG-5.B: runtime convergence (LDBC QUERY 2 why-empty, %s) ==\n", e.cacheStats())
	q, _ := workload.FailingVariant("LDBC QUERY 2")
	rw := relax.New(e.ldbc.m, e.ldbc.st)
	for _, p := range []relax.Priority{relax.PriorityRandom, relax.PriorityCombined} {
		out := rw.Rewrite(q, relax.Options{Control: e.relaxCtl(40), Priority: p, MaxSolutions: 3, Seed: 7})
		fmt.Printf("%-22s trace:", p)
		best := 0
		for _, c := range out.Trace {
			if c > best {
				best = c
			}
			fmt.Printf(" %d", best)
		}
		fmt.Println()
	}
}

// fig5Induced — combined Path(1)+induced-change priority (§5.5.3).
func fig5Induced(e *env) {
	fmt.Printf("== FIG-5.C: avg Path(1) + induced-change priority comparison (%s) ==\n", e.cacheStats())
	fmt.Printf("%-22s %-22s %10s %10s\n", "query", "priority", "executed", "generated")
	for _, nq := range workload.LDBCQueries() {
		q, _ := workload.FailingVariant(nq.Name)
		rw := relax.New(e.ldbc.m, e.ldbc.st)
		for _, p := range []relax.Priority{relax.PriorityAvgPath1, relax.PriorityCombined} {
			out := rw.Rewrite(q, relax.Options{Control: e.relaxCtl(0), Priority: p, MaxSolutions: 1})
			fmt.Printf("%-22s %-22s %10d %10d\n", nq.Name, p, out.Executed, out.Generated)
		}
	}
}

// fig5User — non-intrusive user integration (§5.5.4 + App. B.1): a simulated
// user protects one query element; count proposals until acceptance.
func fig5User(e *env) {
	fmt.Printf("== FIG-5.D: user integration — proposals until acceptance (%s) ==\n", e.cacheStats())
	fmt.Printf("%-22s %16s %16s\n", "query", "no model", "with model")
	for _, nq := range workload.LDBCQueries() {
		q, _ := workload.FailingVariant(nq.Name)
		protected := protectedTargetOf(nq.Name)
		rw := relax.New(e.ldbc.m, e.ldbc.st)
		accepts := func(sol relax.Candidate) bool {
			for _, op := range sol.Ops {
				if op.Target() == protected {
					return false
				}
			}
			return true
		}
		// Without the model: walk the ranked solution list.
		out := rw.Rewrite(q, relax.Options{Control: e.relaxCtl(0), MaxSolutions: 10, AllowTopology: true})
		noModel := -1
		for i, s := range out.Solutions {
			if accepts(s) {
				noModel = i + 1
				break
			}
		}
		// With the model: rate each rejected proposal, re-run.
		pm := relax.NewPreferenceModel(1)
		withModel := -1
		for round := 1; round <= 10; round++ {
			out := rw.Rewrite(q, relax.Options{Control: e.relaxCtl(0), MaxSolutions: 1, AllowTopology: true, Prefs: pm})
			if len(out.Solutions) == 0 {
				break
			}
			if accepts(out.Solutions[0]) {
				withModel = round
				break
			}
			pm.Rate(out.Solutions[0], 0)
		}
		fmt.Printf("%-22s %16d %16d\n", nq.Name, noModel, withModel)
	}
}

func protectedTargetOf(name string) query.Target {
	switch name {
	case "LDBC QUERY 1":
		return query.Target{Kind: query.TargetVertex, ID: 2, Attr: "population"}
	case "LDBC QUERY 2":
		return query.Target{Kind: query.TargetVertex, ID: 3, Attr: "name"}
	case "LDBC QUERY 3":
		return query.Target{Kind: query.TargetEdge, ID: 0, Attr: "since"}
	default:
		return query.Target{Kind: query.TargetVertex, ID: 1, Attr: "age"}
	}
}

// fig5Resources — cache effectiveness (App. B.2). The statistics columns read
// the matcher's executed-count cache, which holds the Path(n) statistics.
func fig5Resources(e *env) {
	fmt.Printf("== FIG-5.E: resource consumption of why-empty rewriting (%s) ==\n", e.cacheStats())
	fmt.Printf("%-22s %10s %10s %10s %12s %12s\n", "query", "executed", "generated", "cachehits", "stat hits", "stat entries")
	for _, nq := range workload.LDBCQueries() {
		q, _ := workload.FailingVariant(nq.Name)
		me := e.ldbc
		rw := relax.New(me.m, me.st)
		out := rw.Rewrite(q, relax.Options{Control: e.relaxCtl(0), MaxSolutions: 5, MaxDepth: 3, AllowTopology: true})
		hits, _, entries := me.m.CountCacheStats()
		fmt.Printf("%-22s %10d %10d %10d %12d %12d\n", nq.Name, out.Executed, out.Generated, out.CacheHits, hits, entries)
	}
}

// fig6Baseline — TRAVERSESEARCHTREE vs baselines (§6.4.2).
func fig6Baseline(e *env) {
	fmt.Printf("== FIG-6.A: fine-grained modification vs baselines (%s) ==\n", e.cacheStats())
	fmt.Printf("%-14s %8s %-12s %10s %10s %10s %12s\n", "query", "factor", "method", "executed", "bestCard", "cardΔ", "runtime")
	for _, nq := range workload.LDBCQueries() {
		for _, factor := range workload.CardinalityFactors {
			cthr := workload.Threshold(nq.C1, factor)
			goal := goalFor(factor, cthr)
			s := modtree.New(e.ldbc.m, e.ldbc.st)
			opts := modtree.Options{Control: e.modCtl(150), Goal: goal, Domain: e.ldbc.dom}
			type res struct {
				label string
				r     modtree.Result
				dt    time.Duration
			}
			var rs []res
			start := time.Now()
			tst := s.TraverseSearchTree(nq.Build(), opts)
			rs = append(rs, res{"TST", tst, time.Since(start)})
			start = time.Now()
			ex := s.Exhaustive(nq.Build(), opts)
			rs = append(rs, res{"exhaustive", ex, time.Since(start)})
			start = time.Now()
			rnd := s.RandomWalk(nq.Build(), opts, 7)
			rs = append(rs, res{"random", rnd, time.Since(start)})
			for _, x := range rs {
				fmt.Printf("%-14s %8.1f %-12s %10d %10d %10d %12s\n",
					nq.Name, factor, x.label, x.r.Executed, x.r.Best.Cardinality, x.r.Best.Distance, x.dt.Round(time.Microsecond))
			}
		}
	}
}

func goalFor(factor float64, cthr int) metrics.Interval {
	if factor < 1 {
		// Too many answers: want at most cthr (and at least one).
		return metrics.Interval{Lower: 1, Upper: cthr}
	}
	// Too few answers: want at least cthr.
	return metrics.Interval{Lower: cthr}
}

// fig6Topology — topology consideration (§6.4.3).
func fig6Topology(e *env) {
	fmt.Printf("== FIG-6.B: TST with and without topology modifications (%s) ==\n", e.cacheStats())
	fmt.Printf("%-22s %-12s %10s %10s %10s\n", "query", "topology", "executed", "bestCard", "satisfied")
	for _, nq := range workload.LDBCQueries() {
		q, _ := workload.FailingVariant(nq.Name)
		s := modtree.New(e.ldbc.m, e.ldbc.st)
		for _, topo := range []bool{false, true} {
			r := s.TraverseSearchTree(q, modtree.Options{
				Control: e.modCtl(150),
				Goal:    metrics.AtLeastOne, Domain: e.ldbc.dom,
				AllowTopology: topo,
			})
			fmt.Printf("%-22s %-12v %10d %10d %10v\n", nq.Name, topo, r.Executed, r.Best.Cardinality, r.Satisfied)
		}
	}
}
