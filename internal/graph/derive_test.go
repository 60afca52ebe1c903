package graph

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// frozenEqual compares the frozen layer g got from Seal with what a Clone of
// it gets from Freeze: the CSR, the posting lists by what they list per value,
// and the columns by what they decode to — a derived dictionary keeps its
// numbering and its stale values. What the columns hold is the ledger's to
// say (ledger.check).
func frozenEqual(t testing.TB, g *Graph) {
	t.Helper()
	want := g.Clone()
	if got, want := g.FrozenCSR(), want.FrozenCSR(); !reflect.DeepEqual(got, want) {
		t.Fatalf("derived CSR\n%+v\nwant\n%+v", got, want)
	}
	gc, wc := g.snapshot(), want.snapshot()
	if got, want := decodePostings(gc), decodePostings(wc); !reflect.DeepEqual(got, want) {
		t.Fatalf("derived posting lists\n%v\nwant\n%v", got, want)
	}
	if got, want := decodeColumns(t, gc.attrs.v, g.NumVertices()), decodeColumns(t, wc.attrs.v, g.NumVertices()); !reflect.DeepEqual(got, want) {
		t.Fatalf("derived vertex columns\n%v\nwant\n%v", got, want)
	}
	if got, want := decodeColumns(t, gc.attrs.e, g.NumEdges()), decodeColumns(t, wc.attrs.e, g.NumEdges()); !reflect.DeepEqual(got, want) {
		t.Fatalf("derived edge columns\n%v\nwant\n%v", got, want)
	}
}

// decodePostings is what a snapshot's posting lists say: indexed key → value
// → vertices, non-empty lists only. It holds every list to its column.
func decodePostings(c *csr) map[string]map[Value][]VertexID {
	out := make(map[string]map[Value][]VertexID)
	for k, p := range c.post {
		col := c.attrs.v[k]
		if len(p.off) > len(col.Vals)+1 {
			panic(fmt.Sprintf("posting lists of %q have %d codes, the column %d", k, len(p.off)-1, len(col.Vals)))
		}
		for code := 1; code < len(p.off)-1; code++ {
			ids := p.ids[p.off[code]:p.off[code+1]]
			for _, id := range ids {
				if col.Codes[id] != uint32(code) {
					panic(fmt.Sprintf("%q: vertex %d listed under code %d, carries %d", k, id, code, col.Codes[id]))
				}
			}
			if len(ids) > 0 {
				if out[k] == nil {
					out[k] = make(map[Value][]VertexID)
				}
				out[k][col.Vals[code]] = ids
			}
		}
	}
	return out
}

// TestForksShareNothingWritable mutates two forks of one parent — each
// appends to and removes from the parent's row of vertex 0 — while readers
// traverse the parent, and requires that no fork's writes show in the parent
// or in the other fork. Under -race the readers also pin that Fork and Seal
// only read what the parent owns.
func TestForksShareNothingWritable(t *testing.T) {
	parent := buildChain(64)
	parent.AddEdge(0, 2, "likes", nil) // vertex 0 has a row of two: edges 0 and 63
	parent.BuildVertexIndex("type")
	parent.Freeze()
	parentOut0 := slices.Clone(parent.Out(0))

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				steps := 0
				for v := VertexID(0); len(parent.OutAdj(v)) > 0; v = parent.OutAdj(v)[0].Vertex {
					steps++
				}
				if steps != 63 || len(parent.Out(0)) != 2 || len(parent.EdgesByType("knows")) != 63 {
					t.Errorf("parent changed under its forks: walked %d steps, out(0)=%v", steps, parent.Out(0))
					return
				}
				if ids, _ := parent.VerticesByAttr("type", S("person")); len(ids) != 64 {
					t.Errorf("parent index changed under its forks: %d persons", len(ids))
					return
				}
			}
		}()
	}

	forks := make([]*Graph, 2)
	for i := range forks {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			f := parent.Fork()
			// Append to the shared row, then remove one of the parent's own
			// entries from it: fork 0 drops edge 0, fork 1 drops edge 63.
			f.AddEdge(0, VertexID(10+i), "knows", nil)
			if err := f.RemoveEdge(EdgeID(63 * i)); err != nil {
				t.Error(err)
				return
			}
			v := f.AddVertex(Attrs{"type": S("person")})
			f.AddEdge(v, 0, "likes", nil)
			if err := f.RemoveVertex(VertexID(20 + i)); err != nil {
				t.Error(err)
				return
			}
			f.Seal()
			forks[i] = f
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	if !slices.Equal(parent.Out(0), parentOut0) {
		t.Fatalf("a fork wrote into its parent: out(0) = %v, want %v", parent.Out(0), parentOut0)
	}
	frozenEqual(t, parent)
	if got, want := forks[0].Out(0), []EdgeID{63, 64}; !slices.Equal(got, want) {
		t.Fatalf("fork 0 out(0) = %v, want %v", got, want)
	}
	if got, want := forks[1].Out(0), []EdgeID{0, 64}; !slices.Equal(got, want) {
		t.Fatalf("fork 1 out(0) = %v, want %v", got, want)
	}
	for i, f := range forks {
		if to := f.Edge(64).To; to != VertexID(10+i) {
			t.Fatalf("fork %d: edge 64 ends at %d, want %d: the forks share an edge table", i, to, 10+i)
		}
		if f.VertexRemoved(VertexID(20+1-i)) || !f.VertexRemoved(VertexID(20+i)) {
			t.Fatalf("fork %d sees the other fork's removal", i)
		}
		frozenEqual(t, f)
	}
}

// TestSealMatchesFreeze drives Seal through the shapes its splice has a
// branch for — a new type that renumbers the dense ids, a type that loses its
// last edge, cascading removals, additions touching old rows, an element added
// and removed in the same batch, a fork of a fork — and holds the result,
// posting lists included, to Freeze. A discarded fork must leave no trace.
func TestSealMatchesFreeze(t *testing.T) {
	g := chain(t)
	g.BuildVertexIndex("type", "idx")
	g.Freeze()

	for _, step := range []struct {
		name  string
		apply func(f *Graph) error
	}{
		{"new first type", func(f *Graph) error {
			v := f.AddVertex(Attrs{"type": S("city")})
			f.AddEdge(0, v, "a-first", nil)
			return nil
		}},
		{"last edge of a type", func(f *Graph) error { return f.RemoveEdge(2) }}, // the only "likes"
		{"cascade", func(f *Graph) error { return f.RemoveVertex(1) }},
		{"add and remove at once", func(f *Graph) error {
			v := f.AddVertex(Attrs{"type": S("person"), "idx": N(9)})
			e := f.AddEdge(v, 0, "zz-last", nil)
			if err := f.RemoveEdge(e); err != nil {
				return err
			}
			return f.RemoveVertex(v)
		}},
		{"vertices only", func(f *Graph) error {
			f.AddVertex(Attrs{"type": S("person"), "idx": N(0)})
			f.AddVertex(nil)
			return nil
		}},
	} {
		discarded := g.Fork()
		if err := step.apply(discarded); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		f := g.Fork()
		if err := step.apply(f); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		d := f.Seal()
		frozenEqual(t, g) // neither fork wrote into its predecessor
		frozenEqual(t, f)
		if int(d.FirstVertex) != g.NumVertices() || int(d.FirstEdge) != g.NumEdges() {
			t.Fatalf("%s: delta starts at %d/%d, predecessor has %d/%d", step.name, d.FirstVertex, d.FirstEdge, g.NumVertices(), g.NumEdges())
		}
		if want := f.NumRemovedEdges() - g.NumRemovedEdges(); len(d.RemovedEdges) != want {
			t.Fatalf("%s: delta lists %d removed edges, want %d", step.name, len(d.RemovedEdges), want)
		}
		g = f
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Seal on a sealed graph did not panic")
		}
	}()
	g.Seal()
}
