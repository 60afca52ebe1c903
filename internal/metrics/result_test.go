package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
)

// randomResultSets builds two result sets the way two queries related by a
// rewriting produce them: both bind `shared` common query elements, the first
// `onlyA` more and the second `onlyB` more (a topology-changing rewriting
// leaves few or none in common); data ids are drawn from [0, domain), so a
// small domain yields duplicate rows. Elements alternate between vertices and
// edges.
func randomResultSets(rng *rand.Rand, na, nb, shared, onlyA, onlyB, domain int) (a, b []match.Result) {
	gen := func(n, own, ownBase int) []match.Result {
		rs := make([]match.Result, n)
		for i := range rs {
			r := match.Result{VertexMap: map[int]graph.VertexID{}, EdgeMap: map[int]graph.EdgeID{}}
			bind := func(id int) {
				if id%2 == 0 {
					r.VertexMap[id] = graph.VertexID(rng.Intn(domain))
				} else {
					r.EdgeMap[id] = graph.EdgeID(rng.Intn(domain))
				}
			}
			for c := 0; c < shared; c++ {
				bind(c)
			}
			for c := 0; c < own; c++ {
				bind(ownBase + c)
			}
			rs[i] = r
		}
		return rs
	}
	return gen(na, onlyA, 100), gen(nb, onlyB, 200)
}

// FuzzResultSetDistance holds the row-form kernel against the retained
// map-and-float reference and against the properties of the measure.
func FuzzResultSetDistance(f *testing.F) {
	// seed, |A|, |B|, shared, only-A, only-B columns, id domain
	f.Add(int64(1), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5))   // both empty
	f.Add(int64(2), uint8(0), uint8(7), uint8(3), uint8(0), uint8(0), uint8(5))   // empty original
	f.Add(int64(3), uint8(7), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5))   // empty explanation
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(2))   // 1×1
	f.Add(int64(5), uint8(100), uint8(3), uint8(7), uint8(0), uint8(0), uint8(9)) // why-so-many: 100×3
	f.Add(int64(6), uint8(3), uint8(100), uint8(7), uint8(0), uint8(0), uint8(9)) // 3×100
	f.Add(int64(7), uint8(100), uint8(100), uint8(5), uint8(1), uint8(1), uint8(4))
	f.Add(int64(8), uint8(12), uint8(9), uint8(0), uint8(3), uint8(4), uint8(6))   // disjoint columns
	f.Add(int64(9), uint8(20), uint8(20), uint8(4), uint8(0), uint8(0), uint8(1))  // every row the same
	f.Add(int64(10), uint8(30), uint8(17), uint8(2), uint8(0), uint8(2), uint8(2)) // many duplicates
	f.Add(int64(11), uint8(5), uint8(8), uint8(0), uint8(0), uint8(0), uint8(3))   // nothing bound
	f.Fuzz(func(t *testing.T, seed int64, na, nb, shared, onlyA, onlyB, domain uint8) {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomResultSets(rng, int(na)%101, int(nb)%101,
			int(shared)%8, int(onlyA)%5, int(onlyB)%5, 1+int(domain)%16)
		var ra, rb match.Rows
		ra.SetResults(a)
		rb.SetResults(b)
		var s ResultScratch
		got := s.RowSetDistance(&ra, &rb)
		if want := refResultSetDistance(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("kernel %v, reference %v", got, want)
		}
		if got < 0 || got > 1 {
			t.Fatalf("distance %v outside [0, 1]", got)
		}
		if back := s.RowSetDistance(&rb, &ra); back != got {
			t.Fatalf("asymmetric: d(a,b) = %v, d(b,a) = %v", got, back)
		}
		if viaResults := ResultSetDistance(a, b); viaResults != got {
			t.Fatalf("ResultSetDistance %v, RowSetDistance %v", viaResults, got)
		}
		shuffled := append([]match.Result(nil), a...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var rs match.Rows
		rs.SetResults(shuffled)
		if d := s.RowSetDistance(&ra, &rs); d != 0 {
			t.Fatalf("a permutation of the same multiset is at distance %v", d)
		}
	})
}

// TestAssignAgainstEnumeration checks the solver against enumeration of
// every assignment, on every shape up to 6×6 (through Assign, so both the
// rows ≤ columns case and its transpose), with costs in {0, 1, 2} so that
// ties are the rule: all matrices of a shape when they number at most 3⁹,
// 500 random ones otherwise. The int32 and float64 instantiations must agree.
func TestAssignAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for m := 1; m <= 6; m++ {
		for n := 1; n <= 6; n++ {
			cells := m * n
			all := 1
			for i := 0; i < cells && all <= 19683; i++ {
				all *= 3
			}
			trials, exhaustive := 500, false
			if all <= 19683 {
				trials, exhaustive = all, true
			}
			for trial := 0; trial < trials; trial++ {
				cost := make([][]float64, m)
				code := trial
				for i := range cost {
					cost[i] = make([]float64, n)
					for j := range cost[i] {
						if exhaustive {
							cost[i][j] = float64(code % 3)
							code /= 3
						} else {
							cost[i][j] = float64(rng.Intn(3))
						}
					}
				}
				want := cheapestByEnumeration(cost)
				asg, got := Assign(cost)
				if got != want {
					t.Fatalf("%d×%d %v: Assign total %v, enumeration %v", m, n, cost, got, want)
				}
				// The assignment is injective, matches min(m, n) rows, and
				// adds up to the total.
				var sum float64
				matched := 0
				usedCol := make([]bool, n)
				for i, c := range asg {
					if c < 0 {
						continue
					}
					if usedCol[c] {
						t.Fatalf("%d×%d %v: column %d assigned twice in %v", m, n, cost, c, asg)
					}
					usedCol[c] = true
					matched++
					sum += cost[i][c]
				}
				if matched != min(m, n) || sum != got {
					t.Fatalf("%d×%d %v: assignment %v matches %d rows for %v, total %v", m, n, cost, asg, matched, sum, got)
				}
				if m <= n {
					flat := make([]int32, 0, cells)
					for i := range cost {
						for _, c := range cost[i] {
							flat = append(flat, int32(c))
						}
					}
					var s assigner[int32]
					if ints := s.solve(flat, m, n, math.MaxInt32); float64(ints) != want {
						t.Fatalf("%d×%d %v: int32 solver %d, enumeration %v", m, n, cost, ints, want)
					}
				}
			}
		}
	}
}

// cheapestByEnumeration tries every way to give each line of the shorter
// side a line of its own on the longer side.
func cheapestByEnumeration(cost [][]float64) float64 {
	m, n := len(cost), len(cost[0])
	at := func(i, j int) float64 { return cost[i][j] }
	if m > n {
		m, n = n, m
		at = func(i, j int) float64 { return cost[j][i] }
	}
	best := math.Inf(1)
	used := make([]bool, n)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if i == m {
			best = math.Min(best, sum)
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				rec(i+1, sum+at(i, j))
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

// TestScoringAllocsZero pins the allocation profile of the scoring stage: on
// warmed scratch, enumerating a limit-100 query into rows and the 100×3 and
// 100×100 result distances allocate nothing.
func TestScoringAllocsZero(t *testing.T) {
	// A hub with 150 spokes: the one-edge pattern has 150 results.
	g := graph.New(151, 150)
	hub := g.AddVertex(graph.Attrs{"type": graph.S("hub")})
	for i := 0; i < 150; i++ {
		g.AddEdge(hub, g.AddVertex(graph.Attrs{"type": graph.S("spoke")}), "has", nil)
	}
	m := match.New(g)
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("hub")})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("spoke")})
	q.AddEdge(a, b, []string{"has"}, nil)

	ctx := m.NewContext()
	var big, other, small match.Rows
	m.FindRows(ctx, q, match.Options{Limit: 100}, &big)
	if big.Len() != 100 || big.Width() != 3 {
		t.Fatalf("enumerated %d rows of width %d, want 100 of width 3", big.Len(), big.Width())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.FindRows(ctx, q, match.Options{Limit: 100}, &big)
	}); allocs != 0 {
		t.Errorf("FindRows into warmed rows allocated %.1f times per run, want 0", allocs)
	}

	rs := big.Results()
	other.SetResults(rs)
	small.SetResults(rs[10:13])
	var s ResultScratch
	if d := s.RowSetDistance(&big, &small); d != 0.97 {
		t.Fatalf("100×3 distance = %v, want 0.97", d)
	}
	if d := s.RowSetDistance(&big, &other); d != 0 {
		t.Fatalf("100×100 distance of equal sets = %v, want 0", d)
	}
	for name, rows := range map[string]*match.Rows{"100x3": &small, "100x100": &other} {
		if allocs := testing.AllocsPerRun(100, func() { s.RowSetDistance(&big, rows) }); allocs != 0 {
			t.Errorf("%s distance on warmed scratch allocated %.1f times per run, want 0", name, allocs)
		}
	}
}
