package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestPredicateMatches(t *testing.T) {
	tests := []struct {
		name string
		p    Predicate
		v    graph.Value
		want bool
	}{
		{"values hit", In(graph.S("a"), graph.S("b")), graph.S("a"), true},
		{"values miss", In(graph.S("a")), graph.S("c"), false},
		{"eq numeric", EqN(3), graph.N(3), true},
		{"open range inside", Open(1, 4), graph.N(2), true},
		{"open range boundary lo", Open(1, 4), graph.N(1), false},
		{"open range boundary hi", Open(1, 4), graph.N(4), false},
		{"closed range boundary", Between(1, 4), graph.N(4), true},
		{"range rejects strings", Between(0, 10), graph.S("5"), false},
		{"atleast", AtLeast(5), graph.N(7), true},
		{"atleast boundary", AtLeast(5), graph.N(5), true},
		{"atmost miss", AtMost(5), graph.N(7), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Matches(tc.v); got != tc.want {
				t.Errorf("Matches(%v) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

func TestPredicateAddRemoveValue(t *testing.T) {
	p := In(graph.S("university"))
	p2 := p.AddValue(graph.S("college"))
	if !p2.Matches(graph.S("college")) || !p2.Matches(graph.S("university")) {
		t.Fatal("AddValue lost values")
	}
	if p.Matches(graph.S("college")) {
		t.Fatal("AddValue mutated the receiver")
	}
	p3, ok := p2.RemoveValue(graph.S("college"))
	if !ok || p3.Matches(graph.S("college")) {
		t.Fatal("RemoveValue failed")
	}
	if _, ok := p3.RemoveValue(graph.S("university")); ok {
		t.Fatal("RemoveValue must not empty a predicate")
	}
	// AddValue on a range widens it.
	r := Between(10, 20).AddValue(graph.N(25))
	if !r.Matches(graph.N(25)) || !r.Matches(graph.N(10)) {
		t.Fatal("range AddValue must widen")
	}
}

func TestPredicateSizeAndEnumeration(t *testing.T) {
	// The thesis example: age ∈ (1;4) comprises exactly {2, 3}.
	p := Open(1, 4)
	if p.Size() != 2 {
		t.Fatalf("Size((1;4)) = %d, want 2", p.Size())
	}
	if d := p.Distance(In(graph.N(2), graph.N(3))); d != 0 {
		t.Fatalf("Distance((1;4), {2, 3}) = %v, want 0", d)
	}
	if d := AtLeast(0).Distance(In(graph.N(0))); d != 1 {
		t.Fatalf("an unbounded range is no set of integers: Distance = %v, want 1", d)
	}
	if AtLeast(0).Size() != math.MaxInt32 {
		t.Fatal("unbounded Size sentinel wrong")
	}
	if In(graph.S("a"), graph.S("b")).Size() != 2 {
		t.Fatal("disjunction size wrong")
	}
	// A disjunction is a set: a repeated value is one value to Size, Equal
	// and Distance alike.
	twice, once := In(graph.S("b"), graph.S("a"), graph.S("b")), In(graph.S("a"), graph.S("b"))
	if twice.Size() != 2 || !twice.Equal(once) || twice.Distance(once) != 0 {
		t.Fatalf("In(b, a, b) = %v: size %d, distance to In(a, b) %v", twice.Vals, twice.Size(), twice.Distance(once))
	}
}

func TestPredicateDistance(t *testing.T) {
	// Worked example from Eq. 3.14: pi(type,(university)) vs
	// pi(type,(university,college)) has MHD max((0+1)/2, 0/1) = 1/2.
	a := In(graph.S("university"))
	b := In(graph.S("university"), graph.S("college"))
	if got := b.Distance(a); got != 0.5 {
		t.Fatalf("Distance = %v, want 0.5", got)
	}
	if got := a.Distance(b); got != 0.5 {
		t.Fatalf("Distance should be symmetric for MHD inputs, got %v", got)
	}
	if a.Distance(a) != 0 {
		t.Fatal("identity distance must be 0")
	}
	// Disjoint sets are at distance 1.
	if got := In(graph.S("x")).Distance(In(graph.S("y"))); got != 1 {
		t.Fatalf("disjoint distance = %v", got)
	}
	// Worked example from Eq. 3.17: sinceYear = 2003 vs 2003 OR 2004 → 1/2.
	if got := EqN(2003).Distance(In(graph.N(2003), graph.N(2004))); got != 0.5 {
		t.Fatalf("sinceYear distance = %v, want 0.5", got)
	}
	// Unbounded ranges: identical → 0, different → 1 fallback via Jaccard.
	if AtLeast(5).Distance(AtLeast(5)) != 0 {
		t.Fatal("identical unbounded ranges distance must be 0")
	}
}

func TestDirSet(t *testing.T) {
	if !Both.Has(Forward) || !Both.Has(Backward) || Both.Count() != 2 {
		t.Fatal("Both broken")
	}
	if Forward.Count() != 1 || Forward.String() != "->" || Backward.String() != "<-" || Both.String() != "--" {
		t.Fatal("Dir rendering broken")
	}
}

// exampleQuery builds the thesis' running example (Fig. 3.5a):
// v1:person(name=Anna) -e1:workAt(sinceYear=2003)-> v2:university
// v2 -e2:locatedIn-> v3:city(name=Berlin)
// v4:person(gender=male, nationality=Chinese) -e3:studyAt-> v2
func exampleQuery() *Query {
	q := New()
	v1 := q.AddVertex(map[string]Predicate{"type": EqS("person"), "name": EqS("Anna")})
	v2 := q.AddVertex(map[string]Predicate{"type": EqS("university")})
	v3 := q.AddVertex(map[string]Predicate{"type": EqS("city"), "name": EqS("Berlin")})
	v4 := q.AddVertex(map[string]Predicate{"type": EqS("person"), "gender": EqS("male"), "nationality": EqS("Chinese")})
	q.AddEdge(v1, v2, []string{"workAt"}, map[string]Predicate{"sinceYear": EqN(2003)})
	q.AddEdge(v2, v3, []string{"locatedIn"}, nil)
	q.AddEdge(v4, v2, []string{"studyAt"}, nil)
	return q
}

func TestQueryTopology(t *testing.T) {
	q := exampleQuery()
	if q.NumVertices() != 4 || q.NumEdges() != 3 {
		t.Fatalf("size = %d/%d", q.NumVertices(), q.NumEdges())
	}
	if got := q.In(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("In(v2) = %v", got)
	}
	if got := q.Out(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Out(v2) = %v", got)
	}
	if got := q.Incident(1); len(got) != 3 {
		t.Fatalf("Incident(v2) = %v", got)
	}
	if !q.IsConnected() {
		t.Fatal("example query is connected")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCloneIndependence(t *testing.T) {
	q := exampleQuery()
	c := q.Clone()
	if !q.Equal(c) {
		t.Fatal("clone must equal original")
	}
	c.Vertex(0).Preds["name"] = EqS("Alice")
	c.RemoveEdge(1)
	if q.Vertex(0).Preds["name"].Matches(graph.S("Alice")) {
		t.Fatal("clone shares predicate storage")
	}
	if q.Edge(1) == nil {
		t.Fatal("clone shares edge storage")
	}
}

func TestRemoveVertexCascades(t *testing.T) {
	q := exampleQuery()
	if !q.RemoveVertex(1) { // v2 is incident to all three edges
		t.Fatal("RemoveVertex returned false")
	}
	if q.NumEdges() != 0 || q.NumVertices() != 3 {
		t.Fatalf("after cascade: %d vertices %d edges", q.NumVertices(), q.NumEdges())
	}
	comps := q.WeaklyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("expected 3 singleton components, got %v", comps)
	}
}

func TestSubqueryByEdges(t *testing.T) {
	q := exampleQuery()
	s := q.SubqueryByEdges([]int{0, 1})
	if s.NumEdges() != 2 || s.NumVertices() != 3 {
		t.Fatalf("subquery size = %d/%d", s.NumVertices(), s.NumEdges())
	}
	if s.Vertex(3) != nil {
		t.Fatal("v4 should not be in subquery")
	}
	// Identifiers preserved.
	if s.Edge(1) == nil || s.Edge(1).To != 2 {
		t.Fatal("identifiers must be preserved")
	}
}

func TestSubqueryByVertices(t *testing.T) {
	q := exampleQuery()
	s := q.SubqueryByVertices([]int{0, 1, 2})
	if s.NumVertices() != 3 || s.NumEdges() != 2 {
		t.Fatalf("subquery = %d/%d", s.NumVertices(), s.NumEdges())
	}
}

func TestCanonicalStability(t *testing.T) {
	a, b := exampleQuery(), exampleQuery()
	if a.Canonical() != b.Canonical() {
		t.Fatal("canonical must be deterministic")
	}
	b.Edge(0).Preds["sinceYear"] = In(graph.N(2003), graph.N(2004))
	if a.Canonical() == b.Canonical() {
		t.Fatal("canonical must reflect predicate changes")
	}
}

func TestOpsTable(t *testing.T) {
	type result struct {
		edges, vertices int
		err             bool
	}
	tests := []struct {
		name string
		op   Op
		want result
	}{
		{"delete edge", DeleteEdge{Edge: 1}, result{edges: 2, vertices: 4}},
		{"delete missing edge", DeleteEdge{Edge: 99}, result{err: true}},
		{"delete vertex", DeleteVertex{Vertex: 3}, result{edges: 2, vertices: 3}},
		{"delete direction", DeleteDirection{Edge: 0}, result{edges: 3, vertices: 4}},
		{"set direction", SetDirection{Edge: 0, Dirs: Backward}, result{edges: 3, vertices: 4}},
		{"set same direction", SetDirection{Edge: 0, Dirs: Forward}, result{err: true}},
		{"delete type", DeleteType{Edge: 0}, result{edges: 3, vertices: 4}},
		{"add type", AddType{Edge: 0, Type: "studyAt"}, result{edges: 3, vertices: 4}},
		{"add dup type", AddType{Edge: 0, Type: "workAt"}, result{err: true}},
		{"remove last type", RemoveType{Edge: 0, Type: "workAt"}, result{err: true}},
		{"delete predicate", DeletePredicate{On: Target{TargetVertex, 0, "name"}}, result{edges: 3, vertices: 4}},
		{"delete missing predicate", DeletePredicate{On: Target{TargetVertex, 0, "zzz"}}, result{err: true}},
		{"insert predicate", InsertPredicate{On: Target{TargetVertex, 1, "city"}, Pred: EqS("Dresden")}, result{edges: 3, vertices: 4}},
		{"insert dup predicate", InsertPredicate{On: Target{TargetVertex, 0, "name"}, Pred: EqS("x")}, result{err: true}},
		{"extend predicate", ExtendPredicate{On: Target{TargetVertex, 0, "name"}, Value: graph.S("Alice")}, result{edges: 3, vertices: 4}},
		{"extend with matching value", ExtendPredicate{On: Target{TargetVertex, 0, "name"}, Value: graph.S("Anna")}, result{err: true}},
		{"shrink predicate singleton", ShrinkPredicate{On: Target{TargetVertex, 0, "name"}, Value: graph.S("Anna")}, result{err: true}},
		{"widen non-range", WidenRange{On: Target{TargetVertex, 0, "name"}, Delta: 1}, result{err: true}},
		{"edge predicate delete", DeletePredicate{On: Target{TargetEdge, 0, "sinceYear"}}, result{edges: 3, vertices: 4}},
		{"insert edge", InsertEdge{From: 0, To: 3, Types: []string{"knows"}}, result{edges: 4, vertices: 4}},
		{"insert edge bad vertex", InsertEdge{From: 0, To: 77}, result{err: true}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := exampleQuery()
			got, err := Apply(q, tc.op)
			if tc.want.err {
				if err == nil {
					t.Fatalf("expected error, got none")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got.NumEdges() != tc.want.edges || got.NumVertices() != tc.want.vertices {
				t.Fatalf("got %d/%d vertices/edges, want %d/%d",
					got.NumVertices(), got.NumEdges(), tc.want.vertices, tc.want.edges)
			}
			// Apply must not mutate the input.
			if !q.Equal(exampleQuery()) {
				t.Fatal("Apply mutated the original query")
			}
		})
	}
}

func TestRangeOps(t *testing.T) {
	q := New()
	v := q.AddVertex(map[string]Predicate{"age": Between(20, 30)})
	got, err := Apply(q, WidenRange{On: Target{TargetVertex, v, "age"}, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := got.Vertex(v).Preds["age"]
	if !p.Matches(graph.N(15)) || !p.Matches(graph.N(35)) {
		t.Fatalf("widened range wrong: %v", p)
	}
	got, err = Apply(q, NarrowRange{On: Target{TargetVertex, v, "age"}, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	p = got.Vertex(v).Preds["age"]
	if p.Matches(graph.N(21)) || !p.Matches(graph.N(25)) {
		t.Fatalf("narrowed range wrong: %v", p)
	}
	if _, err := Apply(q, NarrowRange{On: Target{TargetVertex, v, "age"}, Delta: 6}); err == nil {
		t.Fatal("narrowing past empty must fail")
	}
}

func TestOpMetadata(t *testing.T) {
	relaxing := []Op{
		DeleteEdge{0}, DeleteVertex{0}, DeleteDirection{0}, DeleteType{0},
		AddType{0, "x"}, DeletePredicate{}, ExtendPredicate{}, WidenRange{},
	}
	for _, op := range relaxing {
		if !op.Relaxation() {
			t.Errorf("%T should be a relaxation", op)
		}
	}
	concretizing := []Op{
		SetDirection{}, InsertEdge{}, RemoveType{}, InsertPredicate{},
		ShrinkPredicate{}, NarrowRange{},
	}
	for _, op := range concretizing {
		if op.Relaxation() {
			t.Errorf("%T should be a concretization", op)
		}
	}
	topological := []Op{DeleteEdge{}, DeleteVertex{}, DeleteDirection{}, SetDirection{}, InsertEdge{}}
	for _, op := range topological {
		if !op.Topological() {
			t.Errorf("%T should be topological", op)
		}
	}
	if (DeletePredicate{}).Topological() || (AddType{}).Topological() {
		t.Error("predicate/type ops are not topological")
	}
	if got := (Target{TargetEdge, 1, "sinceYear"}).String(); got != "e1.sinceYear" {
		t.Errorf("Target.String = %q", got)
	}
	if got := (Target{TargetVertex, 3, ""}).String(); got != "v3" {
		t.Errorf("Target.String = %q", got)
	}
}

func TestWCCQuery(t *testing.T) {
	q := New()
	a := q.AddVertex(nil)
	b := q.AddVertex(nil)
	c := q.AddVertex(nil)
	q.AddVertex(nil) // isolated d
	q.AddEdge(a, b, nil, nil)
	q.AddEdge(c, b, nil, nil)
	comps := q.WeaklyConnectedComponents()
	if len(comps) != 2 || len(comps[0]) != 3 || len(comps[1]) != 1 {
		t.Fatalf("WCC = %v", comps)
	}
	if q.IsConnected() {
		t.Fatal("query with isolated vertex is not connected")
	}
}

// Property: WCC partitions the vertex set — every vertex appears in exactly
// one component, every edge's endpoints share a component, and the query is
// connected exactly when there is one component.
func TestWCCQueryPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		q := New()
		for i := 0; i < n; i++ {
			q.AddVertex(nil)
		}
		for i, m := 0, rng.Intn(60); i < m; i++ {
			q.AddEdge(rng.Intn(n), rng.Intn(n), nil, nil)
		}
		comps := q.WeaklyConnectedComponents()
		owner := make(map[int]int)
		for ci, c := range comps {
			for _, v := range c {
				if _, dup := owner[v]; dup {
					return false
				}
				owner[v] = ci
			}
		}
		if len(owner) != n || q.IsConnected() != (len(comps) == 1) {
			return false
		}
		for _, e := range q.Edges() {
			if owner[e.From] != owner[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
