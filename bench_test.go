// Benchmarks regenerating the thesis' evaluation artifacts, one per table /
// figure (see DESIGN.md experiment index). cmd/benchrunner prints the full
// rows and series; the benchmarks here measure the underlying computations
// so regressions in any experiment path show up in `go test -bench`.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/graph"
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

var (
	benchOnce sync.Once
	benchLDBC *repro.Graph
	benchDBp  *repro.Graph
)

func setup() (*repro.Graph, *repro.Graph) {
	benchOnce.Do(func() {
		benchLDBC = datagen.LDBC(datagen.DefaultLDBC())
		benchDBp = datagen.DBpedia(datagen.DefaultDBpedia())
	})
	return benchLDBC, benchDBp
}

// BenchmarkTableA1 measures executing LDBC QUERY 1–4 (Table A.1 row
// regeneration).
func BenchmarkTableA1(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	queries := workload.LDBCQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nq := range queries {
			if got := m.Count(nq.Build(), 0); got != nq.C1 {
				b.Fatalf("%s: %d != %d", nq.Name, got, nq.C1)
			}
		}
	}
}

// BenchmarkFig37 measures the syntactic-distance series of Fig. 3.7.
func BenchmarkFig37(b *testing.B) {
	g, _ := setup()
	dom := stats.BuildDomain(g, 16)
	orig := workload.LDBCQuery2()
	cands := workload.RandomExplanations(orig, dom, 100, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			_ = metrics.SyntacticDistance(orig, c)
		}
	}
}

// BenchmarkFig38 measures the result-distance series of Fig. 3.8.
func BenchmarkFig38(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	dom := stats.BuildDomain(g, 16)
	orig := workload.LDBCQuery2()
	origRes := m.Find(orig, match.Options{Limit: 40})
	cands := workload.RandomExplanations(orig, dom, 10, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			newRes := m.Find(c, match.Options{Limit: 40})
			_ = metrics.ResultSetDistance(origRes, newRes)
		}
	}
}

// BenchmarkFig39 measures the cardinality-distance series of Fig. 3.9.
func BenchmarkFig39(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	dom := stats.BuildDomain(g, 16)
	orig := workload.LDBCQuery1()
	cands := workload.RandomExplanations(orig, dom, 10, 42)
	cthr := workload.Threshold(20, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			_ = metrics.CardinalityDistance(cthr, m.Count(c, 20000))
		}
	}
}

// BenchmarkFig310 measures the bucketed distance correlation of §3.2.5.
func BenchmarkFig310(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	dom := stats.BuildDomain(g, 16)
	orig := workload.LDBCQuery2()
	origRes := m.Find(orig, match.Options{Limit: 40})
	cands := workload.RandomExplanations(orig, dom, 10, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			syn := metrics.SyntacticDistance(orig, c)
			res := metrics.ResultSetDistance(origRes, m.Find(c, match.Options{Limit: 40}))
			_ = syn + res
		}
	}
}

// BenchmarkFig4DiscoverMCS measures DISCOVERMCS with all optimizations on
// the failing LDBC queries (Fig. 4.A).
func BenchmarkFig4DiscoverMCS(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	q, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts mcs.Options
	}{
		{"naive", mcs.Options{}},
		{"wcc", mcs.Options{UseWCC: true}},
		{"single", mcs.Options{SinglePath: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex := mcs.DiscoverMCS(m, st, q, variant.opts)
				if !ex.Satisfied {
					b.Fatal("MCS must exist")
				}
			}
		})
	}
}

// BenchmarkFig4QuerySize measures DISCOVERMCS cost growth with query size
// (Fig. 4.B).
func BenchmarkFig4QuerySize(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	q := workload.LDBCQuery2() // 3 edges
	q.Vertex(3).Preds["name"] = repro.EqS("Atlantis")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mcs.DiscoverMCS(m, st, q, mcs.Options{UseWCC: true})
	}
}

// BenchmarkFig4BoundedMCS measures BOUNDEDMCS under a too-many threshold
// (Fig. 4.C).
func BenchmarkFig4BoundedMCS(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	q := workload.LDBCQuery4()
	bounds := metrics.Interval{Lower: 1, Upper: workload.Threshold(195, 0.2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mcs.BoundedMCS(m, st, q, bounds, mcs.Options{UseWCC: true})
	}
}

// BenchmarkFig5Priority measures one coarse-grained rewriting run per
// priority function (Fig. 5.A).
func BenchmarkFig5Priority(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	q, err := workload.FailingVariant("LDBC QUERY 1")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []relax.Priority{relax.PriorityRandom, relax.PrioritySyntactic, relax.PriorityEstimatedCardinality, relax.PriorityAvgPath1, relax.PriorityCombined} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := stats.New(m) // fresh cache: measure the full cost
				rw := relax.New(m, st)
				out := rw.Rewrite(q, relax.Options{Priority: p, MaxSolutions: 1, Seed: 7})
				if len(out.Solutions) == 0 {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// BenchmarkFig5Convergence measures the traced rewriting run of Fig. 5.B.
func BenchmarkFig5Convergence(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	rw := relax.New(m, st)
	q, _ := workload.FailingVariant("LDBC QUERY 2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := rw.Rewrite(q, relax.Options{Control: search.Control{MaxExecuted: 40}, Priority: relax.PriorityCombined, MaxSolutions: 3})
		if len(out.Trace) == 0 {
			b.Fatal("no trace")
		}
	}
}

// BenchmarkFig5Induced measures the combined-priority rewriting (Fig. 5.C).
func BenchmarkFig5Induced(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	rw := relax.New(m, st)
	q, _ := workload.FailingVariant("LDBC QUERY 3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rw.Rewrite(q, relax.Options{Priority: relax.PriorityCombined, MaxSolutions: 1})
	}
}

// BenchmarkFig5User measures one simulated-user feedback round (Fig. 5.D).
func BenchmarkFig5User(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	rw := relax.New(m, st)
	q, _ := workload.FailingVariant("LDBC QUERY 2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm := relax.NewPreferenceModel(1)
		out := rw.Rewrite(q, relax.Options{MaxSolutions: 1, AllowTopology: true, Prefs: pm})
		if len(out.Solutions) > 0 {
			pm.Rate(out.Solutions[0], 0)
			_ = rw.Rewrite(q, relax.Options{MaxSolutions: 1, AllowTopology: true, Prefs: pm})
		}
	}
}

// BenchmarkFig6Baselines measures TST vs exhaustive vs random on one
// too-few case (Fig. 6.A).
func BenchmarkFig6Baselines(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	dom := stats.BuildDomain(g, 16)
	s := modtree.New(m, st)
	q := workload.LDBCQuery1()
	goal := metrics.Interval{Lower: workload.Threshold(20, 2)}
	opts := modtree.Options{Control: search.Control{MaxExecuted: 100}, Goal: goal, Domain: dom}
	b.Run("tst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.TraverseSearchTree(q, opts)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Exhaustive(q, opts)
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.RandomWalk(q, opts, int64(i))
		}
	})
}

// BenchmarkFig6Topology measures TST with topology changes enabled
// (Fig. 6.B).
func BenchmarkFig6Topology(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	st := stats.New(m)
	dom := stats.BuildDomain(g, 16)
	s := modtree.New(m, st)
	q, _ := workload.FailingVariant("LDBC QUERY 1")
	opts := modtree.Options{Control: search.Control{MaxExecuted: 100}, Goal: metrics.AtLeastOne, Domain: dom, AllowTopology: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.TraverseSearchTree(q, opts)
	}
}

// BenchmarkSearchKernel measures the internal/search hot loop in isolation:
// the machinery every explanation search now runs on. frontier is 256
// mixed-priority push/pops on a reused frontier; executor is one run of 256
// keyed executions plus a full dedup re-scan (Seen/Execute/Record, trivial
// eval, so only kernel bookkeeping is on the clock). Neither allocates
// (internal/search's TestKernelAllocsZero).
func BenchmarkSearchKernel(b *testing.B) {
	g, _ := setup()
	m := match.New(g)
	b.Run("frontier", func(b *testing.B) {
		f := search.NewFrontier(func(a, b int) bool { return a > b })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Reset()
			for j := 0; j < 256; j++ {
				f.Push(j * 2654435761 % 97) // mixed priorities, heavy ties
			}
			for f.Len() > 0 {
				f.Pop()
			}
		}
	})
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("kernel-key-%04d", i)
	}
	b.Run("executor", func(b *testing.B) {
		ex := search.NewExecutor(m)
		eval := func(*match.Ctx) int { return 1 }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex.Begin(search.Control{MaxExecuted: 1 << 30})
			for _, k := range keys {
				if ex.Seen(k) {
					continue
				}
				card, ok := ex.Execute(k, eval)
				if !ok {
					b.Fatal("budget must not run out")
				}
				ex.Record(card)
			}
			for _, k := range keys { // steady-state dedup-hit path
				if !ex.Seen(k) {
					b.Fatal("executed key must be seen")
				}
			}
			ex.End()
		}
	})
}

// BenchmarkCompile measures plan compilation alone — the per-query setup
// cost (slot remapping, candidate computation, step ordering) paid by every
// rewritten candidate the relaxation searches execute.
func BenchmarkCompile(b *testing.B) {
	lg, _ := setup()
	m := match.New(lg)
	q := workload.LDBCQuery3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Compile(q) == nil {
			b.Fatal("no plan")
		}
	}
}

// BenchmarkCandidates measures candidate-list computation for one indexed
// query vertex (the §5.2.2 vertex-cardinality scan).
func BenchmarkCandidates(b *testing.B) {
	lg, _ := setup()
	m := match.New(lg)
	q := workload.LDBCQuery3()
	v := q.Vertex(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.CandidateCount(v) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkCandidatesCold measures one candidate-cache miss on the scan path:
// a person predicate set that names no indexed attribute (gender and an age
// range, no type), resolved by a matcher with an empty cache over whybench's
// graph (LDBC at -scale 8, 30 k vertices). The count is held to a scan of the
// decoded attributes.
func BenchmarkCandidatesCold(b *testing.B) {
	g := datagen.LDBC(datagen.DefaultLDBC().Scaled(8))
	g.Freeze()
	q := query.New()
	v := q.Vertex(q.AddVertex(map[string]query.Predicate{"gender": query.EqS("female"), "age": query.Between(30, 39)}))
	want := 0
	for i := 0; i < g.NumVertices(); i++ {
		a := g.VertexAttrs(repro.VertexID(i))
		if a["gender"] == graph.S("female") && v.Preds["age"].Matches(a["age"]) {
			want++
		}
	}
	if want == 0 {
		b.Fatal("the predicate set selects nobody")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := match.New(g).CandidateCount(v); got != want {
			b.Fatalf("%d candidates, the decoded attributes say %d", got, want)
		}
	}
}

// BenchmarkCompiledCount measures executing a precompiled plan with a
// reused context — the steady-state hot path with zero setup cost.
func BenchmarkCompiledCount(b *testing.B) {
	lg, _ := setup()
	m := match.New(lg)
	p := m.Compile(workload.LDBCQuery3())
	ctx := m.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Count(ctx, 0) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkMatcher measures the raw pattern-matching substrate on the two
// data sets (sanity baseline for all experiments).
func BenchmarkMatcher(b *testing.B) {
	lg, dg := setup()
	b.Run("ldbc-q3", func(b *testing.B) {
		m := match.New(lg)
		q := workload.LDBCQuery3()
		for i := 0; i < b.N; i++ {
			if m.Count(q, 0) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("dbpedia-q3", func(b *testing.B) {
		m := match.New(dg)
		q := workload.DBpediaQuery3()
		for i := 0; i < b.N; i++ {
			if m.Count(q, 0) == 0 {
				b.Fatal("no results")
			}
		}
	})
}

// BenchmarkFindRows measures enumerating a limit-100 result sample into a
// reused row buffer — the scoring stage's read of the matcher (plan cache
// warm, zero allocations).
func BenchmarkFindRows(b *testing.B) {
	lg, _ := setup()
	m := match.New(lg)
	q := workload.LDBCQuery3()
	ctx := m.NewContext()
	var rows match.Rows
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.FindRows(ctx, q, match.Options{Limit: 100}, &rows); rows.Len() != 100 {
			b.Fatalf("%d rows, want 100", rows.Len())
		}
	}
}

// BenchmarkResultSetDistance measures the result-distance kernel on warmed
// scratch at the shapes an explain meets: a why-so-many original against the
// few results of its rewriting (100×3), two small sets (12×12), and two full
// samples (100×100). The sets are overlapping windows of LDBC QUERY 3's
// results, so some pairs match exactly and most do not.
func BenchmarkResultSetDistance(b *testing.B) {
	lg, _ := setup()
	rs := match.New(lg).Find(workload.LDBCQuery3(), match.Options{})
	for _, shape := range []struct {
		name           string
		a0, a1, b0, b1 int
	}{
		{"100x3", 0, 100, 98, 101},
		{"12x12", 0, 12, 6, 18},
		{"100x100", 0, 100, 60, 160},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var x, y match.Rows
			x.SetResults(rs[shape.a0:shape.a1])
			y.SetResults(rs[shape.b0:shape.b1])
			var s metrics.ResultScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := s.RowSetDistance(&x, &y); d <= 0 || d >= 1 {
					b.Fatalf("distance %v, want inside (0, 1)", d)
				}
			}
		})
	}
}
