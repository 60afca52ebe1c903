package query

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// keyBaseQuery builds a small but representative query: multiple vertices
// and edges, value and range predicates, multi-type edges, mixed directions.
func keyBaseQuery() *Query {
	q := New()
	a := q.AddVertex(map[string]Predicate{"type": EqS("person"), "age": Between(20, 40)})
	b := q.AddVertex(map[string]Predicate{"type": EqS("person"), "name": In(graph.S("Anna"), graph.S("Bob"))})
	c := q.AddVertex(map[string]Predicate{"type": EqS("city"), "population": AtLeast(100000)})
	d := q.AddVertex(nil)
	q.AddEdge(a, b, []string{"knows", "follows"}, map[string]Predicate{"since": AtLeast(2010)})
	q.AddEdge(b, c, []string{"livesIn"}, nil)
	q.AddEdge(a, c, []string{"livesIn"}, map[string]Predicate{"verified": Eq(graph.B(true))})
	q.AddEdge(c, d, nil, nil)
	return q
}

// randomKeyOp draws one modification op covering the whole Table 3.1
// catalog, biased toward applicable ones.
func randomKeyOp(q *Query, rng *rand.Rand) Op {
	vids, eids := q.VertexIDs(), q.EdgeIDs()
	pickV := func() int { return vids[rng.Intn(len(vids))] }
	attrs := []string{"type", "age", "name", "population", "since", "verified", "extra"}
	pickAttr := func() string { return attrs[rng.Intn(len(attrs))] }
	vals := []graph.Value{graph.S("x"), graph.S("person"), graph.N(7), graph.N(2015), graph.B(false)}
	pickVal := func() graph.Value { return vals[rng.Intn(len(vals))] }
	types := []string{"knows", "follows", "livesIn", "worksAt"}

	switch rng.Intn(14) {
	case 0:
		if len(eids) == 0 {
			return nil
		}
		return DeleteEdge{Edge: eids[rng.Intn(len(eids))]}
	case 1:
		return DeleteVertex{Vertex: pickV()}
	case 2:
		if len(eids) == 0 {
			return nil
		}
		return DeleteDirection{Edge: eids[rng.Intn(len(eids))]}
	case 3:
		if len(eids) == 0 {
			return nil
		}
		dirs := []Dir{Forward, Backward, Both}
		return SetDirection{Edge: eids[rng.Intn(len(eids))], Dirs: dirs[rng.Intn(len(dirs))]}
	case 4:
		return InsertEdge{From: pickV(), To: pickV(), Types: types[:1+rng.Intn(2)], Dirs: Forward}
	case 5:
		if len(eids) == 0 {
			return nil
		}
		return DeleteType{Edge: eids[rng.Intn(len(eids))]}
	case 6:
		if len(eids) == 0 {
			return nil
		}
		return AddType{Edge: eids[rng.Intn(len(eids))], Type: types[rng.Intn(len(types))]}
	case 7:
		if len(eids) == 0 {
			return nil
		}
		return RemoveType{Edge: eids[rng.Intn(len(eids))], Type: types[rng.Intn(len(types))]}
	case 8:
		return DeletePredicate{On: Target{Kind: TargetVertex, ID: pickV(), Attr: pickAttr()}}
	case 9:
		return InsertPredicate{On: Target{Kind: TargetVertex, ID: pickV(), Attr: pickAttr()}, Pred: Eq(pickVal())}
	case 10:
		return ExtendPredicate{On: Target{Kind: TargetVertex, ID: pickV(), Attr: pickAttr()}, Value: pickVal()}
	case 11:
		return ShrinkPredicate{On: Target{Kind: TargetVertex, ID: pickV(), Attr: pickAttr()}, Value: pickVal()}
	case 12:
		return WidenRange{On: Target{Kind: TargetVertex, ID: pickV(), Attr: pickAttr()}, Delta: 1}
	default:
		if len(eids) > 0 && rng.Intn(2) == 0 {
			return DeletePredicate{On: Target{Kind: TargetEdge, ID: eids[rng.Intn(len(eids))], Attr: pickAttr()}}
		}
		return NarrowRange{On: Target{Kind: TargetVertex, ID: pickV(), Attr: pickAttr()}, Delta: 1}
	}
}

// TestKeyMatchesCanonical proves key equality ⇔ Canonical() equality over
// randomized Apply chains: every generated query's binary key is recorded
// against its canonical text, and any disagreement in either direction —
// equal keys with different canonicals (a collision) or different keys with
// equal canonicals (an instability) — fails.
func TestKeyMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	keyToCanon := map[string]string{}
	canonToKey := map[string]string{}
	chains, steps := 0, 0

	check := func(q *Query) {
		key := q.Key()
		canon := q.Canonical()
		if prev, ok := keyToCanon[key]; ok {
			if prev != canon {
				t.Fatalf("key collision: %q maps to both\n%s\nand\n%s", key, prev, canon)
			}
		} else {
			keyToCanon[key] = canon
		}
		if prev, ok := canonToKey[canon]; ok {
			if prev != key {
				t.Fatalf("key instability: canonical\n%s\nproduced keys %q and %q", canon, prev, key)
			}
		} else {
			canonToKey[canon] = key
		}
	}

	for chains < 1200 {
		chains++
		q := keyBaseQuery()
		key := q.Key()
		check(q)
		depth := 1 + rng.Intn(6)
		for d := 0; d < depth; d++ {
			op := randomKeyOp(q, rng)
			if op == nil {
				continue
			}
			child, childKey, err := ApplyKeyed(q, key, op)
			if err != nil {
				continue
			}
			steps++
			// The delta-derived key must equal a from-scratch encode, and
			// the delta-applied query must equal a plain Apply.
			if fresh := child.Key(); childKey != fresh {
				t.Fatalf("ApplyKeyed key diverged after %s:\n delta %q\n fresh %q\nquery:\n%s", op, childKey, fresh, child)
			}
			plain, err2 := Apply(q, op)
			if err2 != nil {
				t.Fatalf("Apply failed where ApplyKeyed succeeded: %s: %v", op, err2)
			}
			if plain.Canonical() != child.Canonical() {
				t.Fatalf("ApplyKeyed query diverged from Apply after %s:\n%s\nvs\n%s", op, child, plain)
			}
			check(child)
			q, key = child, childKey
			if q.NumVertices() == 0 {
				break
			}
		}
	}
	if steps < 1000 {
		t.Fatalf("randomized chain workload too small: %d applied steps, want >= 1000", steps)
	}
	if len(keyToCanon) < 500 {
		t.Fatalf("workload produced only %d distinct queries", len(keyToCanon))
	}
}

// TestAppendKeyByEdgesMatchesSubquery proves the in-place fragment key
// equals the key of the materialized fragment: over random queries (Apply
// chains from the base query) and random edge lists — subsets in any order,
// with repeated and unknown ids mixed in — AppendKeyByEdges, and
// AppendKeyRecordsByEdges cutting the records out of the query's own key,
// yield exactly the bytes of SubqueryByEdges(ids).AppendKey.
func TestAppendKeyByEdgesMatchesSubquery(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	checked := 0
	for chain := 0; chain < 400; chain++ {
		q := keyBaseQuery()
		for d := rng.Intn(6); d > 0; d-- {
			if op := randomKeyOp(q, rng); op != nil {
				if child, err := Apply(q, op); err == nil {
					q = child
				}
			}
		}
		eids := q.EdgeIDs()
		key := q.AppendKey(nil)
		offs, ok := AppendRecordOffsets(nil, key)
		if soffs, sok := AppendRecordOffsets(nil, string(key)); !ok || !sok || !slices.Equal(offs, soffs) || len(offs) != 2*(q.NumVertices()+q.NumEdges())+1 {
			t.Fatalf("record offsets %v (%v) / %v (%v) of\n%s", offs, ok, soffs, sok, q)
		}
		if _, ok := AppendRecordOffsets(nil, key[:max(0, len(key)-1)]); ok && len(key) > 0 {
			t.Fatalf("a truncated key parsed: %q", key[:len(key)-1])
		}
		for trial := 0; trial < 8; trial++ {
			var ids []int
			for n := rng.Intn(len(eids) + 3); n > 0; n-- {
				if len(eids) == 0 || rng.Intn(8) == 0 {
					ids = append(ids, 900+rng.Intn(3)) // not an edge of q
				} else {
					ids = append(ids, eids[rng.Intn(len(eids))])
				}
			}
			prefix := []byte("p")
			got := q.AppendKeyByEdges(prefix, ids)
			want := q.SubqueryByEdges(ids).AppendKey([]byte("p"))
			cut := q.AppendKeyRecordsByEdges([]byte("p"), key, offs, ids)
			if string(got) != string(want) || string(cut) != string(want) {
				t.Fatalf("edges %v of\n%s\nAppendKeyByEdges %q\ncut from the key %q\nsubquery key     %q", ids, q, got, cut, want)
			}
			checked++
		}
	}
	if checked < 3000 {
		t.Fatalf("only %d fragments checked", checked)
	}
}

// TestKeyRoundTrip pins simple structural facts of the encoding.
func TestKeyRoundTrip(t *testing.T) {
	q := keyBaseQuery()
	if q.Key() != q.Key() {
		t.Fatal("Key must be deterministic")
	}
	c := q.Clone()
	if q.Key() != c.Key() {
		t.Fatal("clone must share the key")
	}
	if !q.Equal(c) {
		t.Fatal("Equal must hold for clones")
	}
	c.Vertex(0).Preds["age"] = Between(21, 40)
	if q.Key() == c.Key() {
		t.Fatal("predicate change must change the key")
	}
	if q.Equal(c) {
		t.Fatal("Equal must fail after a predicate change")
	}
}

// TestSetTypesKeepsCanonicalSorted covers the precomputed sorted type list:
// package mutators and direct Types writes must both yield sorted canonical
// text.
func TestSetTypesKeepsCanonicalSorted(t *testing.T) {
	q := New()
	a := q.AddVertex(nil)
	b := q.AddVertex(nil)
	id := q.AddEdge(a, b, []string{"zeta", "alpha"}, nil)
	want := q.Canonical()
	if err := (AddType{Edge: id, Type: "mid"}).Apply(q); err != nil {
		t.Fatal(err)
	}
	if err := (RemoveType{Edge: id, Type: "mid"}).Apply(q); err != nil {
		t.Fatal(err)
	}
	if got := q.Canonical(); got != want {
		t.Fatalf("AddType+RemoveType changed canonical:\n%s\nvs\n%s", got, want)
	}
	// Direct write bypassing the mutators: the defensive check must catch it.
	q.Edge(id).Types = []string{"omega", "beta"}
	q2 := New()
	a2 := q2.AddVertex(nil)
	b2 := q2.AddVertex(nil)
	q2.AddEdge(a2, b2, []string{"beta", "omega"}, nil)
	if q.Canonical() != q2.Canonical() || q.Key() != q2.Key() {
		t.Fatal("direct Types write must still canonicalize sorted")
	}
	// SetTypes path.
	q.Edge(id).SetTypes([]string{"omega", "beta"})
	if q.Key() != q2.Key() {
		t.Fatal("SetTypes must refresh the sorted cache")
	}
}

// TestCountMayChange pins the key-level footprint test the cache carry-over
// across graph writes rests on: which (query, batch) pairs keep a cached
// count, with and without the matcher's trailing cap, on keys long enough to
// need multi-byte lengths, and on input that is not a query key at all.
func TestCountMayChange(t *testing.T) {
	types := func(ts ...string) map[string]struct{} {
		m := make(map[string]struct{})
		for _, t := range ts {
			m[t] = struct{}{}
		}
		return m
	}
	// keyBaseQuery without its type-free edge and the vertex only that edge
	// mentions: every edge typed, every vertex on an edge.
	q := keyBaseQuery()
	q.RemoveEdge(q.EdgeIDs()[3])
	q.RemoveVertex(q.VertexIDs()[3])
	used := []string{"follows", "knows", "livesIn"}
	untyped := q.Clone()
	untyped.Edge(untyped.EdgeIDs()[0]).SetTypes(nil)
	lone := q.Clone()
	lone.AddVertex(map[string]Predicate{"type": EqS("person")})
	long := q.Clone()
	long.Vertex(long.VertexIDs()[0]).Preds["bio"] = EqS(string(make([]byte, 300)))

	for _, tc := range []struct {
		name     string
		q        *Query
		types    map[string]struct{}
		vertices bool
		want     bool
	}{
		{"nothing it binds", q, types("loadtest"), true, false},
		{"one of its types", q, types("loadtest", used[0]), false, true},
		{"vertices only, every vertex on an edge", q, types(), true, false},
		{"untyped edge, some edge touched", untyped, types("loadtest"), false, true},
		{"untyped edge, vertices only", untyped, types(), true, false},
		{"edge-free vertex, a vertex touched", lone, types(), true, true},
		{"edge-free vertex, edges only", lone, types("loadtest"), false, false},
		{"multi-byte payload length", long, types("loadtest"), true, false},
		{"multi-byte payload length, touched", long, types(used[0]), true, true},
	} {
		key := tc.q.Key()
		// Bare, and with every shape of trailing cap: none of them may be
		// taken for a record — 101 and 118 are the bytes 'e' and 'v'.
		for _, cap := range []uint64{0, 5, 'e', 'v', 128, 2000, 1 << 40} {
			capped := string(binary.AppendUvarint([]byte(key), cap))
			for _, k := range []string{key, capped} {
				if got := CountMayChange(k, tc.types, tc.vertices); got != tc.want {
					t.Errorf("%s (cap %d, %d key bytes): got %v, want %v", tc.name, cap, len(k), got, tc.want)
				}
			}
		}
	}

	// When in doubt, recount: a range-count key (leading 0x00), an empty
	// key, and truncated keys all report true.
	key := q.Key()
	for _, bad := range []string{"", "\x00" + key, key[:len(key)/2], key[:3], "e"} {
		if !CountMayChange(bad, types(), false) {
			t.Errorf("malformed key %q accepted as untouched", bad)
		}
	}

	e := q.Edge(q.EdgeIDs()[0])
	ck := string(e.AppendConstraintKey(nil))
	if EdgeCountMayChange(ck, types("loadtest")) || !EdgeCountMayChange(ck, types(e.Types[0])) {
		t.Error("typed edge constraint: touched only by its own types")
	}
	uk := string(untyped.Edge(untyped.EdgeIDs()[0]).AppendConstraintKey(nil))
	if !EdgeCountMayChange(uk, types("loadtest")) || EdgeCountMayChange(uk, types()) {
		t.Error("untyped edge constraint: touched by any edge, and only by edges")
	}
	if !EdgeCountMayChange("", types()) || !EdgeCountMayChange(ck[:3], types()) {
		t.Error("malformed constraint key accepted as untouched")
	}
}
