package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
)

func TestMHDInts(t *testing.T) {
	tests := []struct {
		a, b []int
		want float64
	}{
		{nil, nil, 0},
		{[]int{1}, nil, 1},
		{nil, []int{1}, 1},
		{[]int{1, 2}, []int{1, 2}, 0},
		{[]int{1}, []int{1, 2}, 0.5},        // Eq. 3.15 shape: max(0/1, 1/2)
		{[]int{1, 2}, []int{3, 4}, 1},       // disjoint
		{[]int{1, 2, 3}, []int{1}, 2.0 / 3}, // max(2/3, 0/1)
	}
	for _, tc := range tests {
		if got := MHDInts(tc.a, tc.b); got != tc.want {
			t.Errorf("MHDInts(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMHDStrings(t *testing.T) {
	if got := MHDStrings([]string{"workAt"}, []string{"workAt"}); got != 0 {
		t.Errorf("identical types distance = %v", got)
	}
	if got := MHDStrings([]string{"workAt"}, []string{"studyAt", "workAt"}); got != 0.5 {
		t.Errorf("extended type disjunction distance = %v, want 0.5", got)
	}
}

// originalQuery is Fig. 3.5a.
func originalQuery() *query.Query {
	q := query.New()
	v1 := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "name": query.EqS("Anna")})
	v2 := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	v3 := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city"), "name": query.EqS("Berlin")})
	v4 := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "gender": query.EqS("male"), "nationality": query.EqS("Chinese")})
	q.AddEdge(v1, v2, []string{"workAt"}, map[string]query.Predicate{"sinceYear": query.EqN(2003)})
	q.AddEdge(v2, v3, []string{"locatedIn"}, nil)
	q.AddEdge(v4, v2, []string{"studyAt"}, nil)
	return q
}

// modifiedQuery is Fig. 3.5b: v4 and e3 removed, name/type/sinceYear
// predicates extended.
func modifiedQuery() *query.Query {
	q := originalQuery()
	q.RemoveVertex(3) // drops e3 too
	q.Vertex(0).Preds["name"] = query.In(graph.S("Anna"), graph.S("Alice"), graph.S("Sandra"))
	q.Vertex(1).Preds["type"] = query.In(graph.S("university"), graph.S("college"))
	q.Vertex(2).Preds["name"] = query.In(graph.S("Madrid"), graph.S("Rom"))
	q.Edge(0).Preds["sinceYear"] = query.In(graph.N(2003), graph.N(2004))
	return q
}

// TestSyntacticDistanceWorkedExample reproduces the §3.2.2 example
// (Fig. 3.5, Eq. 3.14–3.18). Per-element distances follow Eq. 3.11/3.12
// exactly. Note: the thesis narrative reports d(v3)=0.33 and an overall
// 0.42, but applying Eq. 3.11 verbatim to v3 gives
// (d_type + d_name + d_IN + d_OUT) / (|PI|+2) = (0+1+0+0)/4 = 0.25
// (the narrative appears to reuse v2's 1/3 for v3); with 0.25 the overall
// Eq. 3.13 value is (0.16̄+0.3̄+0.25+1+0.1+0+1)/7 ≈ 0.41. We assert the
// equations, and the worked per-element values the equations confirm.
func TestSyntacticDistanceWorkedExample(t *testing.T) {
	// Per-element distances by id; an element only one query holds is at 1.
	vertexByID := func(q1, q2 *query.Query, id int) float64 {
		if a, b := q1.Vertex(id), q2.Vertex(id); a != nil && b != nil {
			return vertexDistance(a, b, q1.Edges(), q2.Edges())
		}
		return 1
	}
	edgeByID := func(q1, q2 *query.Query, id int) float64 {
		if a, b := q1.Edge(id), q2.Edge(id); a != nil && b != nil {
			return edgeDistance(a, b)
		}
		return 1
	}
	q1, q2 := originalQuery(), modifiedQuery()

	// Eq. 3.16: d(v2) = 1/3 from d_type = 1/2 (Eq. 3.14) and d_IN = 1/2
	// (Eq. 3.15: e3 removed from IN(v2)).
	if got := vertexByID(q1, q2, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("d(v2) = %v, want 1/3", got)
	}
	// d(v1) = (0 + 2/3 + 0 + 0) / 4 = 1/6 ≈ 0.16.
	if got := vertexByID(q1, q2, 0); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("d(v1) = %v, want 1/6", got)
	}
	// v4 missing from Q2 → 1.
	if got := vertexByID(q1, q2, 3); got != 1 {
		t.Errorf("d(v4) = %v, want 1", got)
	}
	// d(e1) = (1/2 + 0 + 0 + 0 + 0) / 5 = 0.1 (Eq. 3.17 and below).
	if got := edgeByID(q1, q2, 0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("d(e1) = %v, want 0.1", got)
	}
	// e2 unchanged → 0; e3 missing → 1.
	if got := edgeByID(q1, q2, 1); got != 0 {
		t.Errorf("d(e2) = %v, want 0", got)
	}
	if got := edgeByID(q1, q2, 2); got != 1 {
		t.Errorf("d(e3) = %v, want 1", got)
	}
	// Eq. 3.13 aggregate with the Eq. 3.11-exact v3 value 0.25:
	want := (1.0/6 + 1.0/3 + 0.25 + 1 + 0.1 + 0 + 1) / 7
	if got := SyntacticDistance(q1, q2); math.Abs(got-want) > 1e-12 {
		t.Errorf("SyntacticDistance = %v, want %v", got, want)
	}
	if got := SyntacticDistance(q1, q2); got < 0.40 || got > 0.42 {
		t.Errorf("overall distance %v outside the thesis ballpark ~0.41–0.42", got)
	}
}

func TestSyntacticDistanceIdentity(t *testing.T) {
	q := originalQuery()
	if got := SyntacticDistance(q, q.Clone()); got != 0 {
		t.Fatalf("identity distance = %v", got)
	}
}

func TestSyntacticDistanceSymmetry(t *testing.T) {
	q1, q2 := originalQuery(), modifiedQuery()
	if d1, d2 := SyntacticDistance(q1, q2), SyntacticDistance(q2, q1); d1 != d2 {
		t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
	}
}

// Property: the syntactic distance stays in [0,1] and grows from 0 only when
// something changed.
func TestSyntacticDistanceRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q1 := originalQuery()
		q2 := q1.Clone()
		changed := false
		if rng.Intn(2) == 0 {
			q2.RemoveEdge(rng.Intn(3))
			changed = true
		}
		if rng.Intn(2) == 0 {
			q2.Vertex(0).Preds["name"] = query.EqS("Zoe")
			changed = true
		}
		d := SyntacticDistance(q1, q2)
		if d < 0 || d > 1 {
			return false
		}
		if changed && d == 0 {
			return false
		}
		if !changed && d != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCardinalityDistances(t *testing.T) {
	if CardinalityDistance(10, 3) != 7 || CardinalityDistance(3, 10) != 7 {
		t.Fatal("CardinalityDistance broken")
	}
	// Eq. 3.19.
	if CardinalityDelta(10, 3, 8) != 5 {
		t.Fatal("CardinalityDelta broken")
	}
	// Eq. 3.20: defined only for non-empty results.
	if CardinalityDeltaEmpty(4, 9) != 5 {
		t.Fatal("CardinalityDeltaEmpty broken")
	}
	if CardinalityDeltaEmpty(0, 9) != -1 {
		t.Fatal("CardinalityDeltaEmpty must be undefined for empty results")
	}
}

func TestIntervalClassify(t *testing.T) {
	tests := []struct {
		iv   Interval
		c    int
		want ProblemKind
	}{
		{AtLeastOne, 0, WhyEmpty},
		{AtLeastOne, 5, Satisfied},
		{Interval{Lower: 10}, 3, WhySoFew},
		{Interval{Lower: 10}, 0, WhyEmpty},
		{Interval{Lower: 1, Upper: 10}, 50, WhySoMany},
		{Interval{Lower: 5, Upper: 10}, 7, Satisfied},
	}
	for _, tc := range tests {
		if got := tc.iv.Classify(tc.c); got != tc.want {
			t.Errorf("Classify(%+v, %d) = %v, want %v", tc.iv, tc.c, got, tc.want)
		}
	}
	if (Interval{Lower: 5, Upper: 10}).Distance(3) != 2 {
		t.Fatal("Interval.Distance below")
	}
	if (Interval{Lower: 5, Upper: 10}).Distance(14) != 4 {
		t.Fatal("Interval.Distance above")
	}
	if (Interval{Lower: 5, Upper: 10}).Distance(7) != 0 {
		t.Fatal("Interval.Distance inside")
	}
	if (Interval{Lower: 5, Upper: 10}).Target(14) != 10 || (Interval{Lower: 5, Upper: 10}).Target(2) != 5 {
		t.Fatal("Interval.Target")
	}
	for _, k := range []ProblemKind{Satisfied, WhyEmpty, WhySoFew, WhySoMany} {
		if k.String() == "" {
			t.Fatal("ProblemKind.String empty")
		}
	}
}

// TestResultGraphDistanceWorkedExample reproduces the Fig. 3.6 example:
// r1 and r2 share v1, e1, v2; r1 additionally binds v3/e2, r2 binds v4/e4
// → GED = 4 over 7 distinct elements = 4/7.
func TestResultGraphDistanceWorkedExample(t *testing.T) {
	r1 := match.Result{
		VertexMap: map[int]graph.VertexID{0: 1, 1: 2, 2: 5},
		EdgeMap:   map[int]graph.EdgeID{0: 1, 1: 10},
	}
	r2 := match.Result{
		VertexMap: map[int]graph.VertexID{0: 1, 1: 2, 3: 15},
		EdgeMap:   map[int]graph.EdgeID{0: 1, 3: 15},
	}
	if got := ResultGraphDistance(r1, r2); math.Abs(got-4.0/7) > 1e-12 {
		t.Fatalf("ResultGraphDistance = %v, want 4/7", got)
	}
	if got := ResultGraphDistance(r1, r1); got != 0 {
		t.Fatalf("identity result distance = %v", got)
	}
	// Relabeling: same query ids, different data ids.
	r3 := match.Result{
		VertexMap: map[int]graph.VertexID{0: 9, 1: 2, 2: 5},
		EdgeMap:   map[int]graph.EdgeID{0: 1, 1: 10},
	}
	if got := ResultGraphDistance(r1, r3); math.Abs(got-1.0/5) > 1e-12 {
		t.Fatalf("relabel distance = %v, want 1/5", got)
	}
}

// TestHungarianWorkedExample solves the §3.2.4 matrix; the optimal
// assignment is d31, d22, d43, d14 with cost 0.58 and normalized 0.145.
func TestHungarianWorkedExample(t *testing.T) {
	cost := [][]float64{
		{0.15, 0.21, 0.18, 0.16},
		{0.10, 0.17, 0.60, 0.48},
		{0.12, 0.29, 0.10, 0.15},
		{0.23, 0.44, 0.13, 0.25},
	}
	asg, total := Assign(cost)
	if math.Abs(total-0.58) > 1e-9 {
		t.Fatalf("total = %v, want 0.58", total)
	}
	want := []int{3, 1, 0, 2} // row i → column asg[i]
	for i, c := range want {
		if asg[i] != c {
			t.Fatalf("assignment = %v, want %v", asg, want)
		}
	}
}

func TestAssignAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(100)) / 100
			}
		}
		_, got := Assign(cost)
		// Brute force over permutations.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := math.MaxFloat64
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				var s float64
				for r, c := range perm {
					s += cost[r][c]
				}
				if s < best {
					best = s
				}
				return
			}
			for j := i; j < n; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				rec(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		rec(0)
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignRectangular(t *testing.T) {
	// 1 row, 3 columns: the best single match; Algorithm 2's two pad rows
	// would add their constant 2 to any assignment.
	cost := [][]float64{{0.9, 0.2, 0.5}}
	asg, total := Assign(cost)
	if asg[0] != 1 {
		t.Fatalf("assignment = %v", asg)
	}
	if math.Abs(total-0.2) > 1e-9 {
		t.Fatalf("total = %v, want 0.2", total)
	}
	// 3 rows, 1 column: two rows stay unmatched (-1).
	cost2 := [][]float64{{0.9}, {0.1}, {0.5}}
	asg2, total2 := Assign(cost2)
	if asg2[0] != -1 || asg2[1] != 0 || asg2[2] != -1 || math.Abs(total2-0.1) > 1e-9 {
		t.Fatalf("rect assignment = %v, total %v", asg2, total2)
	}
	if asg3, tot3 := Assign(nil); asg3 != nil || tot3 != 0 {
		t.Fatal("empty Assign")
	}
}

func TestResultSetDistance(t *testing.T) {
	mk := func(v0 graph.VertexID) match.Result {
		return match.Result{VertexMap: map[int]graph.VertexID{0: v0}, EdgeMap: map[int]graph.EdgeID{}}
	}
	orig := []match.Result{mk(1), mk(2), mk(3)}
	// Identical sets → 0.
	if got := ResultSetDistance(orig, []match.Result{mk(3), mk(1), mk(2)}); got != 0 {
		t.Fatalf("identical sets distance = %v", got)
	}
	// Empty explanation → 1.
	if got := ResultSetDistance(orig, nil); got != 1 {
		t.Fatalf("empty explanation distance = %v", got)
	}
	if got := ResultSetDistance(nil, nil); got != 0 {
		t.Fatalf("both empty = %v", got)
	}
	// One overlap out of three, explanation has extra result.
	expl := []match.Result{mk(1), mk(9), mk(8), mk(7)}
	got := ResultSetDistance(orig, expl)
	// 4×4 padded: best = match(1,1)=0 + two relabels (1 each) + one pad 1 → 3/4.
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("partial overlap distance = %v, want 0.75", got)
	}
	if got < 0 || got > 1 {
		t.Fatalf("distance outside [0,1]: %v", got)
	}
}

func TestResultSetDistanceNormalizedExample(t *testing.T) {
	// The §3.2.4 example ends with costs 0.58 normalized by |R1| = 4 →
	// 0.145. Build result graphs whose pairwise distances reproduce the
	// matrix is overkill; instead verify the normalization convention on
	// the Hungarian result directly.
	cost := [][]float64{
		{0.15, 0.21, 0.18, 0.16},
		{0.10, 0.17, 0.60, 0.48},
		{0.12, 0.29, 0.10, 0.15},
		{0.23, 0.44, 0.13, 0.25},
	}
	_, total := Assign(cost)
	if got := total / 4; math.Abs(got-0.145) > 1e-9 {
		t.Fatalf("normalized = %v, want 0.145", got)
	}
}

// shiftedSets returns two one-vertex queries whose k value-set predicates
// hold {1..s} on one side and {2..s+1} on the other, s differing per
// attribute, so the k per-attribute distances 1/s are k different floats.
func shiftedSets(k int) (q1, q2 *query.Query) {
	sizes := []int{3, 7, 11, 13, 6, 9, 14}
	p1, p2 := map[string]query.Predicate{}, map[string]query.Predicate{}
	for a := 0; a < k; a++ {
		var lo, hi []graph.Value
		for x := 1; x <= sizes[a]; x++ {
			lo, hi = append(lo, graph.N(float64(x))), append(hi, graph.N(float64(x+1)))
		}
		attr := string(rune('a' + a))
		p1[attr], p2[attr] = query.In(lo...), query.In(hi...)
	}
	q1, q2 = query.New(), query.New()
	q1.AddVertex(p1)
	q2.AddVertex(p2)
	return q1, q2
}

// TestSyntacticDistanceDeterministic: the distance is a function of its
// arguments. Summing the per-attribute distances in map-iteration order, as
// it once did, gives two or three different floats from four differing
// predicates on — and rankings, the wire and every byte-identity
// differential compare the value exactly.
func TestSyntacticDistanceDeterministic(t *testing.T) {
	for k := 3; k <= 7; k++ {
		q1, q2 := shiftedSets(k)
		seen := map[float64]int{}
		for i := 0; i < 5000; i++ {
			seen[SyntacticDistance(q1, q2)]++
		}
		if len(seen) != 1 {
			t.Errorf("k=%d: %d distinct distances for one pair of queries: %v", k, len(seen), seen)
		}
	}
}

// TestSyntacticDistanceAllocsZero pins the priority signal both rewriting
// searches take per generated candidate: a depth-3 copy-on-write candidate
// against its root, and two queries that share no storage.
func TestSyntacticDistanceAllocsZero(t *testing.T) {
	root := originalQuery()
	cand, key := root, root.Key()
	for _, op := range []query.Op{
		query.ExtendPredicate{On: query.Target{Kind: query.TargetVertex, ID: 0, Attr: "name"}, Value: graph.S("Alice")},
		query.DeleteType{Edge: 1},
		query.DeleteEdge{Edge: 2},
	} {
		var err error
		if cand, key, err = query.ApplyKeyed(cand, key, op); err != nil {
			t.Fatal(err)
		}
	}
	if d := SyntacticDistance(root, cand); d <= 0 || d >= 1 {
		t.Fatalf("depth-3 candidate at distance %v", d)
	}
	other, _ := shiftedSets(5)
	for i := 0; i < 2; i++ {
		other.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
		other.AddEdge(0, i+1, []string{"knows", "workAt"}, map[string]query.Predicate{"since": query.AtLeast(2011)})
	}
	other.AddEdge(2, 1, nil, nil)
	if n := other.NumVertices() + other.NumEdges(); n < 6 || root.NumVertices()+root.NumEdges() < 6 {
		t.Fatalf("unrelated queries too small: %d elements", n)
	}
	for name, pair := range map[string][2]*query.Query{"candidate": {root, cand}, "unrelated": {root, other}} {
		if allocs := testing.AllocsPerRun(100, func() { SyntacticDistance(pair[0], pair[1]) }); allocs != 0 {
			t.Errorf("%s: SyntacticDistance allocates %v times per call, want 0", name, allocs)
		}
	}
}
