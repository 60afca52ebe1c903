package graph

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// decodeColumns is what a column set says about n elements: key → element id
// → value, present cells only. It fails on a column of the wrong length or
// with a dictionary whose index and values disagree.
func decodeColumns(t testing.TB, cols columns, n int) map[string]map[int]Value {
	t.Helper()
	out := make(map[string]map[int]Value)
	for k, c := range cols {
		if len(c.Codes) != n {
			t.Fatalf("column %q has %d codes for %d elements", k, len(c.Codes), n)
		}
		if len(c.index) != len(c.Vals)-1 {
			t.Fatalf("column %q: %d indexed values, %d listed", k, len(c.index), len(c.Vals)-1)
		}
		for code := 1; code < len(c.Vals); code++ {
			if c.Code(c.Vals[code]) != uint32(code) {
				t.Fatalf("column %q: value %v has code %d, listed at %d", k, c.Vals[code], c.Code(c.Vals[code]), code)
			}
		}
		for id, code := range c.Codes {
			if code == 0 {
				continue
			}
			if out[k] == nil {
				out[k] = make(map[int]Value)
			}
			out[k][id] = c.Vals[code]
		}
	}
	return out
}

// attrCells is the same table read off the attribute maps of g's live
// elements — what the columns have to say.
func attrCells(g *Graph) (v, e map[string]map[int]Value) {
	v, e = make(map[string]map[int]Value), make(map[string]map[int]Value)
	put := func(m map[string]map[int]Value, id int, attrs Attrs) {
		for k, val := range attrs {
			if m[k] == nil {
				m[k] = make(map[int]Value)
			}
			m[k][id] = val
		}
	}
	for i := range g.vertices {
		put(v, i, g.vertices[i].Attrs) // nil once removed
	}
	for i := range g.edges {
		if !g.EdgeRemoved(EdgeID(i)) {
			put(e, i, g.edges[i].Attrs)
		}
	}
	return v, e
}

// columnsEqualAttrs holds g's frozen columns to its attribute maps: for every
// element and key vals[codes[id]] ⇔ Attrs[key], absent ⇔ 0, tombstones 0.
func columnsEqualAttrs(t testing.TB, g *Graph) {
	t.Helper()
	c := g.snapshot()
	wantV, wantE := attrCells(g)
	if got := decodeColumns(t, c.vcols, len(g.vertices)); !reflect.DeepEqual(got, wantV) {
		t.Fatalf("vertex columns decode to\n%v\nthe attribute maps say\n%v", got, wantV)
	}
	if got := decodeColumns(t, c.ecols, len(g.edges)); !reflect.DeepEqual(got, wantE) {
		t.Fatalf("edge columns decode to\n%v\nthe attribute maps say\n%v", got, wantE)
	}
}

// byteStream draws choices from fuzz bytes; an exhausted stream reads zeros.
type byteStream struct{ data []byte }

func (s *byteStream) next(n int) int {
	if len(s.data) == 0 || n <= 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % n
}

var fuzzKeys = []string{"type", "name", "age", "flag", "k4", "k5"}

// attrs draws an attribute map: up to three keys, values of all three kinds
// out of a range wide enough that later batches bring new ones.
func (s *byteStream) attrs() Attrs {
	n := s.next(4)
	if n == 0 {
		return nil
	}
	a := make(Attrs, n)
	for ; n > 0; n-- {
		k := fuzzKeys[s.next(len(fuzzKeys))]
		switch x := s.next(24); x % 3 {
		case 0:
			a[k] = N(float64(x))
		case 1:
			a[k] = S(fmt.Sprint("s", x))
		default:
			a[k] = B(x%2 == 0)
		}
	}
	return a
}

// batch applies a random batch to f: additions, edge removals and cascading
// vertex removals in one, elements added by the batch itself among the removed.
func (s *byteStream) batch(t testing.TB, f *Graph) {
	live := func() (ids []VertexID) {
		for i := 0; i < f.NumVertices(); i++ {
			if !f.VertexRemoved(VertexID(i)) {
				ids = append(ids, VertexID(i))
			}
		}
		return ids
	}
	for ops := 1 + s.next(6); ops > 0; ops-- {
		var err error
		switch vs := live(); s.next(4) {
		case 0:
			f.AddVertex(s.attrs())
		case 1:
			if len(vs) > 0 {
				f.AddEdge(vs[s.next(len(vs))], vs[s.next(len(vs))], []string{"knows", "likes", "owns"}[s.next(3)], s.attrs())
			}
		case 2:
			if id := EdgeID(s.next(f.NumEdges())); f.NumEdges() > 0 && !f.EdgeRemoved(id) {
				err = f.RemoveEdge(id)
			}
		default:
			if len(vs) > 0 {
				err = f.RemoveVertex(vs[s.next(len(vs))])
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSealColumns builds a random small graph and seals a chain of random
// batches onto it, every batch applied to two forks of the current epoch.
// After every Seal: the columns say what the attribute maps say; the frozen
// layer equals what Freeze and BuildVertexIndex build on a Clone; the
// predecessor's columns — whose spare capacity the first fork may have
// written — still read as before; and the second fork, which had to copy, is
// as right as the first and shows nothing of it.
func FuzzSealColumns(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteStream{data}
		g := New(0, 0)
		for n := 1 + s.next(8); n > 0; n-- {
			g.AddVertex(s.attrs())
		}
		for n := s.next(8); n > 0; n-- {
			g.AddEdge(VertexID(s.next(g.NumVertices())), VertexID(s.next(g.NumVertices())), "knows", s.attrs())
		}
		g.BuildVertexIndex("type")
		g.Freeze()
		columnsEqualAttrs(t, g)
		for step := 0; step < 6 && len(s.data) > 0; step++ {
			beforeV := decodeColumns(t, g.snapshot().vcols, g.NumVertices())
			beforeE := decodeColumns(t, g.snapshot().ecols, g.NumEdges())
			first, second := g.Fork(), g.Fork()
			s.batch(t, first)
			s.batch(t, second)
			first.Seal()
			second.Seal()
			for _, fork := range []*Graph{first, second} {
				frozenEqual(t, fork) // columns included
			}
			if got := decodeColumns(t, g.snapshot().vcols, g.NumVertices()); !reflect.DeepEqual(got, beforeV) {
				t.Fatalf("sealing its forks changed the predecessor's vertex columns:\n%v\nwere\n%v", got, beforeV)
			}
			if got := decodeColumns(t, g.snapshot().ecols, g.NumEdges()); !reflect.DeepEqual(got, beforeE) {
				t.Fatalf("sealing its forks changed the predecessor's edge columns:\n%v\nwere\n%v", got, beforeE)
			}
			if g = first; s.next(4) == 0 {
				g = second
			}
		}
	})
}

// TestSealExtendsInPlace pins the cost rule of the column derivation: the
// first fork sealed from a base appends to the base's arrays where they have
// room, a second fork of the same base copies, a removal copies exactly the
// columns the removed element has a value in, and a dictionary is shared until
// a batch brings a value it does not hold.
func TestSealExtendsInPlace(t *testing.T) {
	g := buildChain(64)
	g.AddEdge(0, 1, "likes", Attrs{"w": N(1)})
	g.Freeze()
	grow := func(base *Graph, attrs Attrs) *Graph {
		f := base.Fork()
		f.AddVertex(attrs)
		f.Seal()
		columnsEqualAttrs(t, f)
		return f
	}
	same := func(a, b *Graph, key string) bool {
		return &a.VertexColumns()[key].Codes[0] == &b.VertexColumns()[key].Codes[0]
	}
	// Freeze sizes its arrays exactly, so the first append reallocates — with
	// room to spare for the next.
	e1 := grow(g, Attrs{"type": S("person"), "i": N(0)})
	e2 := grow(e1, Attrs{"type": S("person"), "i": N(1)})
	if !same(e1, e2, "type") || !same(e1, e2, "i") {
		t.Fatal("the first fork sealed from an epoch with spare capacity copied its columns")
	}
	if &e1.VertexColumns()["i"].Vals[0] != &e2.VertexColumns()["i"].Vals[0] {
		t.Fatal("a batch of known values copied the dictionary")
	}
	sibling := grow(e1, Attrs{"type": S("city"), "i": N(2)})
	if same(e1, sibling, "type") || same(e1, sibling, "i") {
		t.Fatal("a second fork of one base wrote behind the first one's back")
	}
	if got := e2.VertexColumns()["type"]; got.Vals[got.Codes[65]] != S("person") {
		t.Fatalf("the sibling's append shows in the first fork: vertex 65 is %v", got.Vals[got.Codes[65]])
	}
	if _, ok := e2.VertexColumns()["i"].index[N(200)]; ok {
		t.Fatal("unexpected value")
	}
	e3 := grow(e2, Attrs{"type": S("person"), "i": N(200)}) // N(200) is new to "i"
	if _, leaked := e2.VertexColumns()["i"].index[N(200)]; leaked {
		t.Fatal("a new value was written into the predecessor's dictionary")
	}
	if e3.VertexColumns()["type"].index == nil || &e3.VertexColumns()["type"].Vals[0] != &e2.VertexColumns()["type"].Vals[0] {
		t.Fatal("a dictionary the batch added nothing to was copied")
	}
	// Vertex 3 carries "type" and "i"; its removal cascades to two "knows"
	// edges without attributes: both vertex columns are copied, the edge
	// column "w" is not.
	f := e3.Fork()
	if err := f.RemoveVertex(3); err != nil {
		t.Fatal(err)
	}
	f.Seal()
	columnsEqualAttrs(t, f)
	columnsEqualAttrs(t, e3)
	if same(e3, f, "type") || same(e3, f, "i") {
		t.Fatal("a removal cleared a code in the predecessor's array")
	}
	if &e3.EdgeColumns()["w"].Codes[0] != &f.EdgeColumns()["w"].Codes[0] {
		t.Fatal("a removal copied a column the removed elements have no value in")
	}
}

// TestColumnsOldEpochRace has readers scan the columns of epoch n while epoch
// n+1 is sealed into the same arrays' spare capacity, over a chain of epochs.
// Under -race it pins that a Seal writes nothing a reader of an earlier epoch
// can reach.
func TestColumnsOldEpochRace(t *testing.T) {
	g := buildChain(256)
	g.Freeze()
	var cur atomic.Pointer[Graph]
	cur.Store(g)
	stop := make(chan struct{})
	var readers sync.WaitGroup
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
				g := cur.Load()
				for k, col := range g.VertexColumns() {
					if len(col.Codes) != g.NumVertices() {
						t.Errorf("column %q: %d codes, %d vertices", k, len(col.Codes), g.NumVertices())
						return
					}
					for id, code := range col.Codes {
						if got, want := col.Vals[code], g.Vertex(VertexID(id)).Attrs[k]; code != 0 && got != want {
							t.Errorf("vertex %d %q reads %v, want %v", id, k, got, want)
							return
						}
					}
				}
				for _, col := range g.EdgeColumns() {
					for _, code := range col.Codes {
						_ = col.Vals[code]
					}
				}
			}
		}()
	}
	inPlace := 0
	for i := 0; i < 200; i++ {
		f := g.Fork()
		v := f.AddVertex(Attrs{"type": S("person"), "i": N(float64(i % 300))})
		f.AddEdge(v, VertexID(i), "knows", Attrs{"since": N(float64(2000 + i%5))})
		f.Seal()
		if &f.VertexColumns()["i"].Codes[0] == &g.VertexColumns()["i"].Codes[0] {
			inPlace++
		}
		cur.Store(f)
		g = f
	}
	close(stop)
	readers.Wait()
	columnsEqualAttrs(t, g)
	if inPlace < 150 {
		t.Fatalf("only %d of 200 epochs extended their predecessor's column in place", inPlace)
	}
}
