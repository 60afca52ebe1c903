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
// edges. With hub, the first shared element is a vertex every result of
// both sets binds to the same id, as the anchor of an anchored pattern is.
func randomResultSets(rng *rand.Rand, na, nb, shared, onlyA, onlyB, domain int, hub bool) (a, b []match.Result) {
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
			if hub && shared > 0 {
				r.VertexMap[0] = graph.VertexID(domain)
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
	// seed, |A|, |B|, shared, only-A, only-B columns, id domain, hub
	f.Add(int64(1), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5), false)   // both empty
	f.Add(int64(2), uint8(0), uint8(7), uint8(3), uint8(0), uint8(0), uint8(5), false)   // empty original
	f.Add(int64(3), uint8(7), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5), false)   // empty explanation
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(2), false)   // 1×1
	f.Add(int64(5), uint8(100), uint8(3), uint8(7), uint8(0), uint8(0), uint8(9), false) // why-so-many: 100×3
	f.Add(int64(6), uint8(3), uint8(100), uint8(7), uint8(0), uint8(0), uint8(9), false) // 3×100
	f.Add(int64(7), uint8(100), uint8(100), uint8(5), uint8(1), uint8(1), uint8(4), false)
	f.Add(int64(8), uint8(12), uint8(9), uint8(0), uint8(3), uint8(4), uint8(6), false)     // disjoint columns
	f.Add(int64(9), uint8(20), uint8(20), uint8(4), uint8(0), uint8(0), uint8(1), false)    // every row the same
	f.Add(int64(10), uint8(30), uint8(17), uint8(2), uint8(0), uint8(2), uint8(2), false)   // many duplicates
	f.Add(int64(11), uint8(5), uint8(8), uint8(0), uint8(0), uint8(0), uint8(3), false)     // nothing bound
	f.Add(int64(12), uint8(100), uint8(100), uint8(4), uint8(0), uint8(0), uint8(9), true)  // hub vertex
	f.Add(int64(13), uint8(100), uint8(100), uint8(4), uint8(0), uint8(0), uint8(1), false) // ids from {0, 1}
	f.Fuzz(func(t *testing.T, seed int64, na, nb, shared, onlyA, onlyB, domain uint8, hub bool) {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomResultSets(rng, int(na)%101, int(nb)%101,
			int(shared)%8, int(onlyA)%5, int(onlyB)%5, 1+int(domain)%16, hub)
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

// checkAgainstReference solves cost through Assign and through the int32
// kernel on the kept assigner s (the shorter side as rows) and holds both
// against the O(n³) reference refAssignRect: the same total, and an
// assignment that pairs min(m, n) lines one to one and adds up to it. The
// costs must be integers.
func checkAgainstReference(t *testing.T, s *assigner[int32], cost [][]float64) {
	t.Helper()
	m, n := len(cost), len(cost[0])
	_, want := refAssignRect(cost, 0)
	asg, got := Assign(cost)
	if got != want {
		t.Fatalf("%d×%d: Assign total %v, reference %v", m, n, got, want)
	}
	var sum float64
	matched, usedCol := 0, make([]bool, n)
	for i, j := range asg {
		if j < 0 {
			continue
		}
		if usedCol[j] {
			t.Fatalf("%d×%d: Assign gives column %d twice", m, n, j)
		}
		usedCol[j] = true
		matched++
		sum += cost[i][j]
	}
	if matched != min(m, n) || sum != got {
		t.Fatalf("%d×%d: Assign pairs %d lines for %v, total %v", m, n, matched, sum, got)
	}

	rows, cols, at := m, n, func(i, j int) float64 { return cost[i][j] }
	if m > n {
		rows, cols, at = n, m, func(i, j int) float64 { return cost[j][i] }
	}
	flat := make([]int32, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			flat = append(flat, int32(at(i, j)))
		}
	}
	if ints := s.solve(flat, rows, cols, math.MaxInt32); float64(ints) != want {
		t.Fatalf("%d×%d: int32 solver %d, reference %v", m, n, ints, want)
	}
	var isum int32
	matched, usedRow := 0, make([]bool, rows)
	for j, i := range s.p {
		if i < 0 {
			continue
		}
		if usedRow[i] {
			t.Fatalf("%d×%d: int32 solver gives row %d twice", m, n, i)
		}
		usedRow[i] = true
		matched++
		isum += flat[int(i)*cols+j]
	}
	if matched != rows || float64(isum) != want {
		t.Fatalf("%d×%d: int32 solver pairs %d rows for %d, reference %v", m, n, matched, isum, want)
	}
}

// costGrid builds an m×n cost matrix from a cell function.
func costGrid(m, n int, cell func(i, j int) float64) [][]float64 {
	cost := make([][]float64, m)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = cell(i, j)
		}
	}
	return cost
}

// FuzzAssign holds the solver against the retained O(n³) reference on
// matrices nobody hand-picked: up to 12×12 in either shape, integer costs in
// a fuzzed range [lo, lo+span) — a span of 1 or 2 makes ties the rule. Since
// Assign and the result-distance kernel share one solver body, refAssign is
// the only independent oracle of it. The int32 solver first solves a larger
// problem on the same assigner, so scratch a solve fails to reset would show.
func FuzzAssign(f *testing.F) {
	// seed, rows, columns, span, lo
	f.Add(int64(1), uint8(1), uint8(1), uint8(1), int8(0))
	f.Add(int64(2), uint8(12), uint8(12), uint8(2), int8(0))
	f.Add(int64(3), uint8(3), uint8(12), uint8(5), int8(-2))
	f.Add(int64(4), uint8(12), uint8(3), uint8(100), int8(0))
	f.Add(int64(5), uint8(7), uint8(9), uint8(1), int8(5)) // constant
	f.Fuzz(func(t *testing.T, seed int64, m, n, span uint8, lo int8) {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + int(span)%16
		cost := costGrid(1+int(m)%12, 1+int(n)%12, func(int, int) float64 {
			return float64(int(lo) + rng.Intn(width))
		})
		var s assigner[int32]
		warm := make([]int32, 12*12)
		for k := range warm {
			warm[k] = int32(rng.Intn(50))
		}
		s.solve(warm, 12, 12, math.MaxInt32)
		checkAgainstReference(t, &s, cost)
	})
}

// TestAssignWarmStartAdversarial holds the solver against the reference at
// full sample size on the shapes that give the warm start least: every row's
// minimum in column 0 (the greedy pass seats one row and 99 augment), a
// constant matrix (every column ties at every row's minimum), the identity,
// and the 100×3 and 3×100 shapes of a why-so-many comparison.
func TestAssignWarmStartAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	spread := func(int, int) float64 { return float64(rng.Intn(50)) }
	var s assigner[int32]
	for _, c := range []struct {
		name string
		cost [][]float64
	}{
		{"column0", costGrid(100, 100, func(_, j int) float64 {
			if j == 0 {
				return 0
			}
			return float64(1 + rng.Intn(1000))
		})},
		{"constant", costGrid(100, 100, func(int, int) float64 { return 3 })},
		{"identity", costGrid(100, 100, func(i, j int) float64 {
			if i == j {
				return 1
			}
			return 0
		})},
		{"100x3", costGrid(100, 3, spread)},
		{"3x100", costGrid(3, 100, spread)},
	} {
		t.Run(c.name, func(t *testing.T) { checkAgainstReference(t, &s, c.cost) })
	}
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
