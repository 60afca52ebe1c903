// Report-level differential for the result-distance scoring kernel
// (internal/match rows → internal/metrics integer rectangular assignment →
// core.ExplainCtx): every report the engine produces is re-scored the way
// reports were scored before the kernel — result graphs as id maps, a float
// Definition-7 distance per pair, the matrix padded to a square with cost 1
// (Algorithm 2, Step 0), a float sum normalized by the larger set — and must
// carry the same rewritings in the same order with result distances equal to
// 1e-12. The why-empty shortcut (no enumeration: the distance follows from
// the rewriting's cardinality) must agree with what enumeration says.
//
// The re-scoring solves its square matrix with metrics.Assign, which runs
// the same solver body as the kernel. So this differential checks the row
// form, the column alignment, the padding and the normalization, not the
// solver: the solver's one independent oracle is refAssign, the O(n³)
// Hungarian method kept in internal/metrics/reference_test.go (FuzzAssign,
// TestAssignWarmStartAdversarial, FuzzResultSetDistance).
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// scoringSample is core's default ResultSample.
const scoringSample = 100

type scoringCase struct {
	name string
	q    *repro.Query
	opts repro.ExplainOptions
}

// scoringCorpus returns the 16 hot specs of the service benchmark (every
// built-in as its failing variant, and under `lower 1 upper 3`) followed by
// n seeded random variants: one to three random Table 3.1 operations on a
// built-in or on its failing variant, debugged as whichever why-query its
// cardinality makes it, every third one with topology-changing rewritings
// allowed.
func scoringCorpus(t *testing.T, dataset string, m *match.Matcher, dom *repro.Domain, base []workload.Named, n int) []scoringCase {
	var out []scoringCase
	for _, nq := range base {
		out = append(out,
			scoringCase{nq.Name + "/failing", failingVariantFor(t, dataset, nq.Name),
				repro.ExplainOptions{Expected: metrics.AtLeastOne, Budget: 150}},
			scoringCase{nq.Name + "/1..3", nq.Build(),
				repro.ExplainOptions{Expected: repro.Interval{Lower: 1, Upper: 3}, Budget: 150}})
	}
	// Variants of the built-in and of its failing variant alternate, so about
	// half the corpus is why-empty.
	rng := rand.New(rand.NewSource(16))
	coarse := false
	per := (n + 2*len(base) - 1) / (2 * len(base))
	for bi, nq := range base {
		for fi, from := range []*repro.Query{nq.Build(), failingVariantFor(t, dataset, nq.Name)} {
			for vi, q := range workload.RandomExplanations(from, dom, per, int64(16+2*bi+fi)) {
				opts := repro.ExplainOptions{Budget: 40, AllowTopology: vi%3 == 0}
				switch card := m.Count(q, 400); {
				case card == 0:
					opts.Expected = metrics.AtLeastOne
				case card > 1 && rng.Intn(3) > 0:
					opts.Expected = repro.Interval{Lower: 1, Upper: (card + 1) / 2}
				default:
					// Why-so-few; with topology changes allowed, by the
					// coarse-grained relaxation, which then drops elements
					// and leaves the two result sets with unshared columns.
					opts.Expected = repro.Interval{Lower: 2*card + 1}
					if opts.AllowTopology {
						opts.FineGrained = &coarse
					}
				}
				out = append(out, scoringCase{fmt.Sprintf("%s/%d/variant%d", nq.Name, fi, vi), q, opts})
			}
		}
	}
	return out
}

// referenceResultDistance is the result distance as it was computed before
// the kernel, on the same samples: see the file comment.
func referenceResultDistance(orig, expl []match.Result) float64 {
	if len(orig) == 0 && len(expl) == 0 {
		return 0
	}
	if len(orig) == 0 || len(expl) == 0 {
		return 1
	}
	size := max(len(orig), len(expl))
	cost := make([][]float64, size)
	for i := range cost {
		cost[i] = make([]float64, size)
		for j := range cost[i] {
			cost[i][j] = 1
			if i < len(orig) && j < len(expl) {
				cost[i][j] = metrics.ResultGraphDistance(orig[i], expl[j])
			}
		}
	}
	_, total := metrics.Assign(cost)
	return total / float64(size)
}

// checkScoring re-scores one report. It returns how many of its rewritings
// were scored by a real assignment problem and how many by the why-empty
// shortcut.
func checkScoring(t *testing.T, m *match.Matcher, c scoringCase, rep *repro.Report) (assigned, shortcut int) {
	t.Helper()
	orig := m.Find(c.q, match.Options{Limit: scoringSample})
	if (rep.Cardinality == 0) != (len(orig) == 0) {
		t.Fatalf("%s: cardinality %d but %d results enumerated", c.name, rep.Cardinality, len(orig))
	}
	ref := make([]float64, len(rep.Rewritings))
	for i, rw := range rep.Rewritings {
		expl := m.Find(rw.Query, match.Options{Limit: scoringSample})
		ref[i] = referenceResultDistance(orig, expl)
		if math.Abs(rw.ResultDistance-ref[i]) > 1e-12 {
			t.Errorf("%s rewriting %d %v: result distance %v, reference %v", c.name, i, rw.Ops, rw.ResultDistance, ref[i])
		}
		if len(orig) > 0 {
			assigned++
			continue
		}
		shortcut++
		if (rw.ResultDistance == 1) != (len(expl) > 0) || rw.ResultDistance != 0 && rw.ResultDistance != 1 {
			t.Errorf("%s rewriting %d: shortcut distance %v with %d results enumerated", c.name, i, rw.ResultDistance, len(expl))
		}
	}
	// The order: re-ranked on the reference distances, no rewriting moves.
	for i := 1; i < len(rep.Rewritings); i++ {
		a, b := rep.Rewritings[i-1], rep.Rewritings[i]
		if a.CardinalityDistance == b.CardinalityDistance && a.Syntactic == b.Syntactic && ref[i] < ref[i-1]-1e-12 {
			t.Errorf("%s: rewritings %d and %d swap under the reference distances (%v, %v)", c.name, i-1, i, ref[i-1], ref[i])
		}
	}
	return assigned, shortcut
}

func TestScoringDifferential(t *testing.T) {
	lg, dg := setup()
	for _, ds := range []struct {
		name string
		g    *repro.Graph
		base []workload.Named
	}{
		{"ldbc", lg, workload.LDBCQueries()},
		{"dbpedia", dg, workload.DBpediaQueries()},
	} {
		eng := repro.NewEngine(ds.g)
		m := eng.Matcher()
		corpus := scoringCorpus(t, ds.name, m, eng.Domain(), ds.base, 110)
		if len(corpus) < 8+100 {
			t.Fatalf("%s: corpus of %d cases, want the 8 hot specs and at least 100 variants", ds.name, len(corpus))
		}

		assigned, shortcut, unshared := 0, 0, 0
		for _, c := range corpus {
			rep, err := eng.Explain(c.q, c.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", ds.name, c.name, err)
			}
			a, s := checkScoring(t, m, c, rep)
			assigned, shortcut = assigned+a, shortcut+s
			for _, rw := range rep.Rewritings {
				if a > 0 && (rw.Query.NumVertices() != c.q.NumVertices() || rw.Query.NumEdges() != c.q.NumEdges()) {
					unshared++
				}
			}
		}
		t.Logf("%s: %d cases, %d by assignment (%d unshared), %d shortcut", ds.name, len(corpus), assigned, unshared, shortcut)
		if assigned < 20 || shortcut < 20 || unshared == 0 {
			t.Errorf("%s: %d rewritings scored by assignment (%d with unshared columns), %d by the why-empty shortcut — the corpus proves too little",
				ds.name, assigned, unshared, shortcut)
		}
	}
}
