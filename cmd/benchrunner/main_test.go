package main

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/relax"
	"repro/internal/workload"
)

func mustLoad(tb testing.TB) *datasets {
	ds, err := load()
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// TestFigureShape pins the deterministic columns of `benchrunner -exp all`
// in testdata/figures.golden, and asserts over every row what each figure of
// the thesis is there to show. Where the reproduction does not show the
// thesis' shape, the subtest pins the deviation with its numbers. A change
// that moves a figure fails here; if the move is intended, the golden file
// is replaced with the output the failure prints, less its indent.
func TestFigureShape(t *testing.T) {
	ds := mustLoad(t)
	var got strings.Builder
	if err := write(&got, ds, experiments, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-exp all differs from testdata/figures.golden. If the difference is intended, this is the new file:\n%s", got.String())
	}
	t.Run("alone", func(t *testing.T) {
		// Each series run alone, last to first, on data sets of its own
		// prints its section of the all-series run: no series reads state
		// another left behind, in a matcher or in the shared data. A section
		// ends at its only blank line, so containment is equality.
		fresh := mustLoad(t)
		for i := len(experiments) - 1; i >= 0; i-- {
			var alone strings.Builder
			if err := write(&alone, fresh, experiments[i:i+1], false); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(got.String(), alone.String()) {
				t.Errorf("%s alone prints a section that is not its section of the all-series run:\n%s", experiments[i].id, alone.String())
			}
		}
	})
	e := func() *env { return newEnv(ds) }

	t.Run("tab-a1", func(t *testing.T) {
		// Table A.1: the generator reproduces the thesis' cardinalities
		// within one answer.
		rs := tabA1(e())
		for i, nq := range workload.LDBCQueries() {
			if r := rs[i]; r.Measured != nq.C1 || max(r.Measured-r.PaperC1, r.PaperC1-r.Measured) > 1 {
				t.Errorf("%s: measured %d, want %d within 1 of the paper's %d", r.Query, r.Measured, nq.C1, r.PaperC1)
			}
		}
	})
	t.Run("fig3", func(t *testing.T) {
		// Figs. 3.7–3.9: every distance is a distance, the syntactic and
		// result ones normalized to [0, 1].
		for _, c := range []struct {
			rs    []distRow
			n     int
			limit float64
		}{{fig37(e()), 120, 1}, {fig38(e()), 40, 1}, {fig39(e()), 40, math.Inf(1)}} {
			for _, r := range c.rs {
				if r.N != c.n || r.Min < 0 || r.Max > c.limit {
					t.Errorf("%s: n=%d in [%v, %v], want n=%d in [0, %v]", r.Series, r.N, r.Min, r.Max, c.n, c.limit)
				}
			}
		}
	})
	t.Run("fig3.10", func(t *testing.T) {
		// §3.2.5: the farther a random explanation is syntactically, the
		// farther its results, over buckets of at least 10 candidates. The
		// golden file pins the dip of [0.5, 0.6) (n = 6).
		prev := 0.0
		for _, r := range fig310(e()) {
			if r.N >= 10 {
				if r.Avg < prev {
					t.Errorf("%s: average result distance %.3f after %.3f", r.Bucket, r.Avg, prev)
				}
				prev = r.Avg
			}
		}
	})
	t.Run("fig4.discover", func(t *testing.T) {
		// §4.5.1: WCC and single-path each traverse no more than naive,
		// and all four variants find the same MCS.
		rs := fig4Discover(e())
		for i := 0; i < len(rs); i += 4 {
			for _, r := range rs[i+1 : i+4] {
				if r.Traversals > rs[i].Traversals || r.Edges != rs[i].Edges {
					t.Errorf("%s %s: %d traversals, %d MCS edges; naive %d, %d", r.Query, r.Variant, r.Traversals, r.Edges, rs[i].Traversals, rs[i].Edges)
				}
			}
		}
	})
	t.Run("fig4.size", func(t *testing.T) {
		// §4.5.1: single-path never traverses more than naive, and fewer
		// from 3 edges on; naive grows with the query.
		rs := fig4Size(e())
		for i, r := range rs {
			if r.Single > r.Naive || r.Edges >= 3 && r.Single == r.Naive {
				t.Errorf("%d edges: single-path %d, naive %d", r.Edges, r.Single, r.Naive)
			}
			if i > 0 && r.Naive < rs[i-1].Naive {
				t.Errorf("%d edges: naive %d, %d at %d edges", r.Edges, r.Naive, rs[i-1].Naive, rs[i-1].Edges)
			}
		}
	})
	t.Run("fig4.bounded", func(t *testing.T) {
		// Deviation: BOUNDEDMCS meets the too-many threshold on only 3 of
		// the 8 rows (LDBC QUERY 1 ×0.5, LDBC QUERY 2 ×0.2 and ×0.5).
		n := 0
		for _, r := range fig4Bounded(e()) {
			if r.Satisfied {
				n++
			}
		}
		if n != 3 {
			t.Errorf("satisfied on %d of 8 rows, pinned at 3", n)
		}
	})
	t.Run("fig5.priority", func(t *testing.T) {
		// §5.5.1: the statistics-guided priorities find the first solution
		// after no more executions than the seeded random priority, on
		// every built-in's failing variant.
		rs := fig5Priority(e())
		for i := 0; i < len(rs); i += 5 {
			random := rs[i]
			for _, r := range rs[i : i+5] {
				if r.Solutions != 1 {
					t.Errorf("%s, %s: %d solutions after %d executions", r.Query, r.Priority, r.Solutions, r.Executed)
				}
				if (r.Priority == relax.PriorityEstimatedCardinality || r.Priority == relax.PriorityCombined) && r.Executed > random.Executed {
					t.Errorf("%s: %s executed %d candidates, random %d", r.Query, r.Priority, r.Executed, random.Executed)
				}
			}
		}
	})
	t.Run("fig5.convergence", func(t *testing.T) {
		// §5.5.2: path1+induced finds a non-empty rewriting after fewer
		// executions than random.
		rs := fig5Convergence(e())
		first := func(r traceRow) int {
			if !slices.IsSorted(r.Best) {
				t.Errorf("%s: best-so-far trace %v decreases", r.Priority, r.Best)
			}
			return slices.IndexFunc(r.Best, func(c int) bool { return c > 0 })
		}
		if random, combined := first(rs[0]), first(rs[1]); combined < 0 || random >= 0 && combined >= random {
			t.Errorf("first non-empty rewriting after execution %d with path1+induced, %d with random", combined+1, random+1)
		}
	})
	t.Run("fig5.induced", func(t *testing.T) {
		// §5.5.3: adding the induced change to avg Path(1) never costs
		// executions.
		rs := fig5Induced(e())
		for i := 0; i < len(rs); i += 2 {
			if rs[i+1].Executed > rs[i].Executed {
				t.Errorf("%s: path1+induced executed %d, avg-path1 %d", rs[i].Query, rs[i+1].Executed, rs[i].Executed)
			}
		}
	})
	t.Run("fig5.user", func(t *testing.T) {
		// §5.5.4: with the preference model every query is accepted, after
		// no more proposals than walking the ranked list without it.
		for _, r := range fig5User(e()) {
			if r.WithModel < 1 || r.NoModel < 1 || r.WithModel > r.NoModel {
				t.Errorf("%s: accepted after %d proposals with the model, %d without", r.Query, r.WithModel, r.NoModel)
			}
		}
	})
	t.Run("fig5.resources", func(t *testing.T) {
		// App. B.2: the executed-candidate cache saves executions on every
		// query, and the combined priority's Path(n) statistics hit the
		// count cache on every query.
		for _, r := range fig5Resources(e()) {
			if r.CacheHits == 0 {
				t.Errorf("%s: no cache hit in %d executions", r.Query, r.Executed)
			}
			if r.StatHits == 0 {
				t.Errorf("%s: no statistic hit the count cache (%d entries added)", r.Query, r.StatEntries)
			}
		}
	})
	t.Run("fig6.baseline", func(t *testing.T) {
		// §6.4.2: TRAVERSESEARCHTREE executes no more candidates than the
		// exhaustive baseline and ends no farther from the goal, on all 16
		// rows, and executes fewer on at least one. Deviation: every
		// method meets every goal (cardΔ 0 on all 48 rows).
		rs := fig6Baseline(e())
		fewer := false
		for i := 0; i < len(rs); i += 3 {
			tst, ex := rs[i], rs[i+1]
			if tst.Executed > ex.Executed || tst.CardDelta > ex.CardDelta {
				t.Errorf("%s ×%v: TST executed %d (cardΔ %d), exhaustive %d (cardΔ %d)", tst.Query, tst.Factor, tst.Executed, tst.CardDelta, ex.Executed, ex.CardDelta)
			}
			fewer = fewer || tst.Executed < ex.Executed
		}
		if !fewer {
			t.Error("TST executes as many candidates as exhaustive on every row")
		}
		for _, r := range rs {
			if r.CardDelta != 0 {
				t.Errorf("%s ×%v %s: cardΔ %d, pinned at 0", r.Query, r.Factor, r.Method, r.CardDelta)
			}
		}
	})
	t.Run("fig6.topology", func(t *testing.T) {
		// Deviation (§6.4.3): topology modifications change no row.
		rs := fig6Topology(e())
		for i := 0; i < len(rs); i += 2 {
			off, on := rs[i], rs[i+1]
			on.Topology = off.Topology
			if on != off {
				t.Errorf("%s: topology on %+v, off %+v", off.Query, rs[i+1], off)
			}
		}
	})
}

// BenchmarkFig6Baselines times the Fig. 6.A series — TST, exhaustive and
// random walk on its 16 rows — on warm matchers.
func BenchmarkFig6Baselines(b *testing.B) {
	e := newEnv(mustLoad(b))
	for b.Loop() {
		fig6Baseline(e)
	}
}

// BenchmarkFig6Topology times the Fig. 6.B series, TST with and without
// topology modifications, on warm matchers.
func BenchmarkFig6Topology(b *testing.B) {
	e := newEnv(mustLoad(b))
	for b.Loop() {
		fig6Topology(e)
	}
}
