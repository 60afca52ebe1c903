package match

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// walk lists e's members as opStart visits them: order when it is set, the
// set bits in ascending id order otherwise.
func walk(e *candEntry) []graph.VertexID {
	var out []graph.VertexID
	plan := &Plan{nv: 1, cands: []*candEntry{e}, ops: []planOp{{kind: opStart}}}
	c := &Ctx{}
	c.p, c.vBind = plan, make([]graph.VertexID, 1)
	for _, id := range e.order {
		c.visV = growWords(c.visV, int(id))
	}
	for k := range e.bits {
		c.visV = growWords(c.visV, (e.lo+k)<<6|63)
	}
	c.mode, c.rows = modeFind, &Rows{VIDs: []int{0}}
	c.exec(0)
	for _, id := range c.rows.IDs {
		out = append(out, graph.VertexID(id))
	}
	return out
}

func growWords(w []uint64, id int) []uint64 {
	for len(w) <= id>>6 {
		w = append(w, 0)
	}
	return w
}

// TestCandidateSetWindow: a candidate set is a bitset over its own word span,
// with an order list only where the access path is not ascending.
func TestCandidateSetWindow(t *testing.T) {
	t.Run("membership at the window's edges", func(t *testing.T) {
		e := newCandEntry([]graph.VertexID{64, 100, 127, 128}, nil)
		if e.lo != 1 || len(e.bits) != 2 || e.n != 4 || e.order != nil {
			t.Fatalf("lo %d, %d words, n %d, order %v: want words 1 … 2, n 4, no order", e.lo, len(e.bits), e.n, e.order)
		}
		for id, want := range map[graph.VertexID]bool{
			0: false, 63: false, 64: true, 65: false, 100: true, 127: true,
			128: true, 129: false, 191: false, 192: false, 1 << 20: false,
		} {
			if got := e.has(id); got != want {
				t.Errorf("has(%d) = %v, want %v", id, got, want)
			}
		}
		if got := walk(e); !slices.Equal(got, []graph.VertexID{64, 100, 127, 128}) {
			t.Errorf("walk = %v", got)
		}
	})

	t.Run("empty sets", func(t *testing.T) {
		m := New(testGraph())
		for name, preds := range map[string]map[string]query.Predicate{
			"no value admitted":  {"type": query.EqS("planet")},
			"no column to bind":  {"colour": query.EqS("red")},
			"empty intersection": {"type": query.EqS("city"), "age": query.AtLeast(0)},
		} {
			e := m.candidateEntry(&query.Vertex{Preds: preds})
			if e.n != 0 || len(e.bits) != 0 || e.order != nil {
				t.Errorf("%s: n %d, %d words, order %v: want an empty set", name, e.n, len(e.bits), e.order)
			}
			for id := graph.VertexID(0); id < 130; id++ {
				if e.has(id) {
					t.Fatalf("%s: has(%d)", name, id)
				}
			}
			if len(walk(e)) != 0 {
				t.Errorf("%s: the walk visits members", name)
			}
		}
	})

	t.Run("order only on an interleaved posting path", func(t *testing.T) {
		g := graph.New(0, 0)
		kinds := []string{"a", "b", "a", "b", "c", "c"}
		for _, k := range kinds {
			g.AddVertex(graph.Attrs{"kind": graph.S(k), "plain": graph.S(k)})
		}
		g.BuildVertexIndex("kind")
		m := New(g)
		in := func(key string, vals ...string) *query.Vertex {
			vs := make([]graph.Value, len(vals))
			for i, v := range vals {
				vs[i] = graph.S(v)
			}
			return &query.Vertex{Preds: map[string]query.Predicate{key: query.In(vs...)}}
		}
		for _, tc := range []struct {
			name  string
			v     *query.Vertex
			order bool
			want  []graph.VertexID
		}{
			{"one posting list", in("kind", "a"), false, []graph.VertexID{0, 2}},
			{"interleaved posting lists", in("kind", "a", "b"), true, []graph.VertexID{0, 2, 1, 3}},
			{"consecutive posting lists", in("kind", "a", "c"), false, []graph.VertexID{0, 2, 4, 5}},
			{"a scan", in("plain", "a", "b"), false, []graph.VertexID{0, 1, 2, 3}},
		} {
			e := m.candidateEntry(tc.v)
			if (e.order != nil) != tc.order {
				t.Errorf("%s: order %v, want one: %v", tc.name, e.order, tc.order)
			}
			if got := walk(e); !slices.Equal(got, tc.want) || e.n != len(tc.want) {
				t.Errorf("%s: walk %v (n %d), want %v", tc.name, got, e.n, tc.want)
			}
		}
	})

	t.Run("carried past a multiple of 64", func(t *testing.T) {
		g := graph.New(0, 0)
		for i := 0; i < 64; i++ {
			kind := "even"
			if i%2 == 1 {
				kind = "odd"
			}
			g.AddVertex(graph.Attrs{"kind": graph.S(kind)})
		}
		g.BuildVertexIndex("kind")
		prev := New(g)
		single := func(kind string) *query.Query {
			q := query.New()
			q.AddVertex(map[string]query.Predicate{"kind": query.EqS(kind)})
			return q
		}
		odd, even := single("odd"), single("even")
		oddEntry := prev.candidateEntry(odd.Vertex(0))
		prev.candidateEntry(even.Vertex(0))
		if len(oddEntry.bits) != 1 {
			t.Fatalf("odd spans %d words, want 1", len(oddEntry.bits))
		}
		fork := g.Fork()
		for i := 0; i < 70; i++ {
			fork.AddVertex(graph.Attrs{"kind": graph.S("even")})
		}
		d := fork.Seal()
		next := NewSuccessor(prev, fork, d)
		if e := next.candidateEntry(odd.Vertex(0)); e != oddEntry {
			t.Fatal("the odd set was not carried as it is")
		}
		if e := next.candidateEntry(even.Vertex(0)); e.n != 32+70 || !e.has(133) || e.has(134) {
			t.Fatalf("the even set after the batch: n %d, has(133) %v, has(134) %v", e.n, e.has(133), e.has(134))
		}
		for _, q := range []*query.Query{odd, even} {
			if got, ref := next.Count(q, 0), next.ReferenceCount(q, 0); got != ref {
				t.Errorf("count %d, reference %d", got, ref)
			}
		}
	})
}

// FuzzCandidateSet: disjoint ascending runs of ids, in any order, build a set
// whose membership is theirs and whose walk is their order.
func FuzzCandidateSet(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, runs uint8) {
		rng := rand.New(rand.NewSource(seed))
		var spans [][]graph.VertexID
		next := rng.Intn(300)
		for r := 0; r < int(runs%12); r++ {
			var run []graph.VertexID
			for k := rng.Intn(70); k > 0; k-- {
				run = append(run, graph.VertexID(next))
				next += 1 + rng.Intn(90)
			}
			spans = append(spans, run)
			next += rng.Intn(200)
		}
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		var ids []graph.VertexID
		member := map[graph.VertexID]bool{}
		for _, run := range spans {
			ids = append(ids, run...)
			for _, id := range run {
				member[id] = true
			}
		}
		e := newCandEntry(ids, nil)
		if e.n != len(ids) {
			t.Fatalf("n %d, want %d", e.n, len(ids))
		}
		if e.order != nil && slices.IsSorted(ids) {
			t.Fatalf("an ascending input keeps an order list")
		}
		for id := graph.VertexID(0); int(id) < next+130; id++ {
			if e.has(id) != member[id] {
				t.Fatalf("has(%d) = %v", id, e.has(id))
			}
		}
		if got := walk(e); !slices.Equal(got, ids) {
			t.Fatalf("walk %v, want %v", got, ids)
		}
	})
}

// TestFindSortedMatchesSortResults: sorting the rows in place gives Find +
// SortResults, also when parallel data edges make rows differ only in their
// edge bindings and when the plan's step order is not the query's edge id

// TestCandidateKeySeparatesPredicateSets: predicate sets that differ in one
// part of their key — a range's inclusive flags or bounds, a value's kind, the
// attribute — are resolved on one matcher, each twice, and every count is a
// fresh matcher's. Two sets sharing a key would share a cache entry.
func TestCandidateKeySeparatesPredicateSets(t *testing.T) {
	g := testGraph()
	m := New(g)
	rng := func(lo, hi float64, incLo, incHi bool) query.Predicate {
		return query.Predicate{Kind: query.Range, Lo: lo, Hi: hi, IncLo: incLo, IncHi: incHi}
	}
	sets := []map[string]query.Predicate{
		{"age": rng(28, 33, true, true)},
		{"age": rng(28, 33, false, true)},
		{"age": rng(28, 33, true, false)},
		{"age": rng(28, 33, false, false)},
		{"age": rng(28, 41, true, true)},
		{"age": query.EqN(28)},
		{"age": query.In(graph.N(28), graph.N(41))},
		{"name": query.EqS("Anna")},
		{"type": query.EqS("person")},
		{"type": query.EqS("person"), "age": query.AtMost(30)},
	}
	for round := 0; round < 2; round++ {
		for _, preds := range sets {
			v := &query.Vertex{Preds: preds}
			if got, want := m.CandidateCount(v), New(g).CandidateCount(v); got != want {
				t.Errorf("round %d, %v: %d candidates on a shared matcher, %d on a fresh one", round, preds, got, want)
			}
		}
	}
}

// order.
func TestFindSortedMatchesSortResults(t *testing.T) {
	g := graph.New(0, 0)
	hub := g.AddVertex(graph.Attrs{"type": graph.S("hub")})
	var spokes []graph.VertexID
	for i := 0; i < 5; i++ {
		spokes = append(spokes, g.AddVertex(graph.Attrs{"type": graph.S("spoke")}))
	}
	for i, s := range spokes {
		g.AddEdge(s, hub, "to", nil)
		g.AddEdge(s, hub, "to", nil) // a parallel edge
		g.AddEdge(spokes[(i+1)%len(spokes)], s, "next", nil)
	}
	g.BuildVertexIndex("type")
	m := New(g)

	empty := query.New() // two hubs, and the graph has one
	empty.AddVertex(map[string]query.Predicate{"type": query.EqS("hub")})
	empty.AddVertex(map[string]query.Predicate{"type": query.EqS("hub")})

	parallel := query.New()
	s := parallel.AddVertex(map[string]query.Predicate{"type": query.EqS("spoke")})
	t2 := parallel.AddVertex(map[string]query.Predicate{"type": query.EqS("hub")})
	parallel.AddEdge(s, t2, []string{"to"}, nil)
	parallel.AddEdge(s, t2, []string{"to"}, nil)

	// Edge 0 joins two spokes, edges 1 and 2 a spoke to the hub: the plan
	// starts at the hub, so it binds edge 1 first.
	chain := query.New()
	a := chain.AddVertex(map[string]query.Predicate{"type": query.EqS("spoke")})
	b := chain.AddVertex(map[string]query.Predicate{"type": query.EqS("spoke")})
	h := chain.AddVertex(map[string]query.Predicate{"type": query.EqS("hub")})
	chain.AddEdge(a, b, []string{"next"}, nil)
	chain.AddEdge(b, h, []string{"to"}, nil)
	chain.AddEdge(a, h, nil, nil)

	if p := m.Compile(chain); slices.IsSorted(p.eids) {
		t.Fatalf("the chain's plan binds edges in id order %v: the test needs another order", p.eids)
	}
	for name, q := range map[string]*query.Query{"empty": empty, "parallel edges": parallel, "step order": chain} {
		for _, limit := range []int{0, 7} {
			want := m.Find(q, Options{Limit: limit})
			SortResults(want)
			var rows Rows
			m.FindSorted(q, Options{Limit: limit}, &rows)
			if rows.Len() != len(want) {
				t.Fatalf("%s limit %d: %d rows, %d results", name, limit, rows.Len(), len(want))
			}
			if name != "empty" && rows.Len() < 2 {
				t.Fatalf("%s: %d rows: nothing to sort", name, rows.Len())
			}
			var got Rows
			got.SetResults(want)
			if rows.Len() > 0 && (!slices.Equal(rows.VIDs, got.VIDs) || !slices.Equal(rows.EIDs, got.EIDs) || !slices.Equal(rows.IDs, got.IDs)) {
				t.Fatalf("%s limit %d: rows %v %v %v, Find + SortResults %v %v %v",
					name, limit, rows.VIDs, rows.EIDs, rows.IDs, got.VIDs, got.EIDs, got.IDs)
			}
		}
	}
}
