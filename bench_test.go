// Micro-benchmarks of the layers every explanation search runs on: the
// search kernel, plan compilation, candidate resolution, counting, result
// enumeration and the result distance. The thesis' tables and figures are
// defined once, in cmd/benchrunner, whose test pins them.
package repro_test

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/search"
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

// BenchmarkPath1Count measures an exact (cap 0) count of one single-edge
// LDBC plan — person -livesIn-> city, a Path(1) statistic of LDBC QUERY 2 —
// the shape whose counts dominate the embeddings a why-query search counts.
// The plan ends in an expansion, so the count adds up that step's admissible
// half-edges without binding them. The count is held to the reference
// engine's.
func BenchmarkPath1Count(b *testing.B) {
	lg, _ := setup()
	m := match.New(lg)
	q := workload.LDBCQuery2().SubqueryByEdges([]int{1})
	want := m.ReferenceCount(q, 0)
	if want == 0 {
		b.Fatal("the path has no embeddings")
	}
	p := m.Compile(q)
	ctx := m.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Count(ctx, 0); got != want {
			b.Fatalf("count %d, reference %d", got, want)
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
// reused row buffer — the scoring stage's read of the matcher (compiled into
// the warm context, zero allocations).
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
// results, so some pairs match exactly and most do not. In 100x100-hub both
// windows bind vertex 0 to one constant id, as the results of a pattern
// anchored at a hub vertex do.
func BenchmarkResultSetDistance(b *testing.B) {
	lg, _ := setup()
	rs := match.New(lg).Find(workload.LDBCQuery3(), match.Options{})
	hub := make([]match.Result, len(rs))
	for i, r := range rs {
		vm := maps.Clone(r.VertexMap)
		vm[0] = rs[0].VertexMap[0]
		hub[i] = match.Result{VertexMap: vm, EdgeMap: r.EdgeMap}
	}
	for _, shape := range []struct {
		name           string
		from           []match.Result
		a0, a1, b0, b1 int
	}{
		{"100x3", rs, 0, 100, 98, 101},
		{"12x12", rs, 0, 12, 6, 18},
		{"100x100", rs, 0, 100, 60, 160},
		{"100x100-hub", hub, 0, 100, 60, 160},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var x, y match.Rows
			x.SetResults(shape.from[shape.a0:shape.a1])
			y.SetResults(shape.from[shape.b0:shape.b1])
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
