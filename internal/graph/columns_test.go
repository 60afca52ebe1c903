package graph

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
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

// ledger is what a test put into a graph, kept by the test: every element's
// attributes as passed to AddVertex or AddEdge, nil once the element is
// removed. seen collects every vertex value ever put in, so that posting
// lists which should have emptied are probed too.
type ledger struct {
	v, e []Attrs
	seen map[string]map[Value]bool
}

func newLedger() *ledger { return &ledger{seen: make(map[string]map[Value]bool)} }

// fork is the ledger of a fork or clone: its own lists, the shared history.
func (l *ledger) fork() *ledger {
	return &ledger{v: slices.Clone(l.v), e: slices.Clone(l.e), seen: l.seen}
}

func (l *ledger) addVertex(g *Graph, attrs Attrs) VertexID {
	l.v = append(l.v, attrs)
	for k, val := range attrs {
		if l.seen[k] == nil {
			l.seen[k] = make(map[Value]bool)
		}
		l.seen[k][val] = true
	}
	return g.AddVertex(attrs)
}

func (l *ledger) addEdge(g *Graph, from, to VertexID, typ string, attrs Attrs) EdgeID {
	l.e = append(l.e, attrs)
	return g.AddEdge(from, to, typ, attrs)
}

// removed clears the entries of everything g has tombstoned — a vertex
// removal's cascade included.
func (l *ledger) removed(g *Graph) {
	for id := range l.v {
		if g.VertexRemoved(VertexID(id)) {
			l.v[id] = nil
		}
	}
	for id := range l.e {
		if g.EdgeRemoved(EdgeID(id)) {
			l.e[id] = nil
		}
	}
}

// cellsOf is a ledger side as key → id → value, present cells only.
func cellsOf(attrs []Attrs) map[string]map[int]Value {
	out := make(map[string]map[int]Value)
	for id, a := range attrs {
		for k, val := range a {
			if out[k] == nil {
				out[k] = make(map[int]Value)
			}
			out[k][id] = val
		}
	}
	return out
}

// orNil maps an empty attribute set to nil, which is what a decode returns.
func orNil(a Attrs) Attrs {
	if len(a) == 0 {
		return nil
	}
	return a
}

// check holds g to the ledger: its columns, VertexAttrs and EdgeAttrs say
// what the ledger says, for every element and key — absent ⇔ code 0,
// tombstones 0 everywhere — and VerticesByAttr of every indexed key lists, in
// ascending order, exactly the vertices the ledger gives each value ever seen.
// Values compare with ==, under which -0 and 0 are one value.
func (l *ledger) check(t testing.TB, g *Graph) {
	t.Helper()
	if len(l.v) != g.NumVertices() || len(l.e) != g.NumEdges() {
		t.Fatalf("ledger has %d/%d elements, the graph %d/%d", len(l.v), len(l.e), g.NumVertices(), g.NumEdges())
	}
	c := g.snapshot()
	if got, want := decodeColumns(t, c.attrs.v, len(l.v)), cellsOf(l.v); !reflect.DeepEqual(got, want) {
		t.Fatalf("vertex columns decode to\n%v\nthe ledger says\n%v", got, want)
	}
	if got, want := decodeColumns(t, c.attrs.e, len(l.e)), cellsOf(l.e); !reflect.DeepEqual(got, want) {
		t.Fatalf("edge columns decode to\n%v\nthe ledger says\n%v", got, want)
	}
	for id, want := range l.v {
		if got := g.VertexAttrs(VertexID(id)); !reflect.DeepEqual(got, orNil(want)) {
			t.Fatalf("VertexAttrs(%d) = %v, the ledger says %v", id, got, want)
		}
	}
	for id, want := range l.e {
		if got := g.EdgeAttrs(EdgeID(id)); !reflect.DeepEqual(got, orNil(want)) {
			t.Fatalf("EdgeAttrs(%d) = %v, the ledger says %v", id, got, want)
		}
	}
	for _, key := range g.IndexedKeys() {
		for val := range l.seen[key] {
			var want []VertexID
			for id, a := range l.v {
				if got, ok := a[key]; ok && got == val {
					want = append(want, VertexID(id))
				}
			}
			got, ok := g.VerticesByAttr(key, val)
			if !ok || len(got) != len(want) || len(want) > 0 && !slices.Equal(got, want) {
				t.Fatalf("VerticesByAttr(%q, %v) = %v, %v; the ledger says %v", key, val, got, ok, want)
			}
		}
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
// out of a range wide enough that later batches bring new ones, -0 among the
// numbers.
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
			if x == 21 {
				a[k] = N(math.Copysign(0, -1))
			} else {
				a[k] = N(float64(x))
			}
		case 1:
			a[k] = S(fmt.Sprint("s", x))
		default:
			a[k] = B(x%2 == 0)
		}
	}
	return a
}

// batch applies a random batch to f and its ledger: additions, edge removals
// and cascading vertex removals in one, elements added by the batch itself
// among the removed, and reads of the half-applied batch.
func (s *byteStream) batch(t testing.TB, f *Graph, l *ledger) {
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
		switch vs := live(); s.next(5) {
		case 0:
			l.addVertex(f, s.attrs())
		case 1:
			if len(vs) > 0 {
				l.addEdge(f, vs[s.next(len(vs))], vs[s.next(len(vs))], []string{"knows", "likes", "owns"}[s.next(3)], s.attrs())
			}
		case 2:
			if id := EdgeID(s.next(f.NumEdges())); f.NumEdges() > 0 && !f.EdgeRemoved(id) {
				err = f.RemoveEdge(id)
			}
		case 3:
			if len(vs) > 0 {
				err = f.RemoveVertex(vs[s.next(len(vs))])
			}
		default: // a read in the middle of the batch freezes it half-applied
			f.Freeze()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	l.removed(f)
}

// FuzzSealColumns builds a random small graph and seals a chain of random
// batches onto it, every batch applied to two forks of the current epoch and
// the first one's replayed on a plain Clone that is frozen. After every Seal
// each graph reads as its own ledger says (ledger.check) — so neither fork
// shows anything of the other — the frozen layer equals what Freeze builds on
// a Clone, and the predecessor, whose spare capacity the first fork may have
// written, still reads as before.
func FuzzSealColumns(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteStream{data}
		g, l := New(0, 0), newLedger()
		for n := 1 + s.next(8); n > 0; n-- {
			l.addVertex(g, s.attrs())
		}
		for n := s.next(8); n > 0; n-- {
			l.addEdge(g, VertexID(s.next(g.NumVertices())), VertexID(s.next(g.NumVertices())), "knows", s.attrs())
		}
		g.BuildVertexIndex("type", "age")
		g.Freeze()
		l.check(t, g)
		for step := 0; step < 6 && len(s.data) > 0; step++ {
			first, second, frozen := g.Fork(), g.Fork(), g.Clone()
			lf, ls, lz := l.fork(), l.fork(), l.fork()
			replay := byteStream{s.data}
			s.batch(t, first, lf)
			replay.batch(t, frozen, lz)
			s.batch(t, second, ls)
			first.Seal()
			second.Seal()
			frozen.Freeze()
			lf.check(t, first)
			ls.check(t, second)
			lz.check(t, frozen)
			frozenEqual(t, first)
			frozenEqual(t, second)
			l.check(t, g)
			if g, l = first, lf; s.next(4) == 0 {
				g, l = second, ls
			}
		}
	})
}

// TestSealLedgerCases runs the batches the column derivation has a branch for
// through Seal, through Freeze on a Clone of the predecessor, and against the
// ledger — a vertex removed by the batch that added it, a removed edge that
// had attributes, an indexed value whose last carrier goes, a key that leaves
// the graph, a batch read (and so frozen) half-applied — and pins what a
// removal hands on in the Delta.
func TestSealLedgerCases(t *testing.T) {
	g, l := New(0, 0), newLedger()
	for i := 0; i < 4; i++ {
		l.addVertex(g, Attrs{"type": S("person"), "age": N(float64(20 + i))})
	}
	l.addVertex(g, Attrs{"type": S("city"), "rare": B(true)})
	l.addEdge(g, 0, 1, "knows", Attrs{"since": N(2011)})
	l.addEdge(g, 1, 4, "livesIn", nil)
	g.BuildVertexIndex("type", "age")
	g.Freeze()
	l.check(t, g)
	for _, step := range []struct {
		name  string
		apply func(g *Graph, l *ledger) error
		check func(d *Delta) error
	}{
		{"vertex removed by the batch that added it", func(g *Graph, l *ledger) error {
			v := l.addVertex(g, Attrs{"type": S("ghost"), "age": N(99)})
			l.addEdge(g, v, 0, "knows", Attrs{"since": N(1)})
			return g.RemoveVertex(v)
		}, func(d *Delta) error {
			if len(d.RemovedVertices) != 1 || d.RemovedAttrs[0] != nil || len(d.RemovedEdges) != 1 || d.RemovedEdgeAttrs[0] != nil {
				return fmt.Errorf("delta %+v: an element no column held must hand on no attributes", d)
			}
			return nil
		}},
		{"removed edge with attributes", func(g *Graph, l *ledger) error {
			return g.RemoveEdge(0)
		}, func(d *Delta) error {
			if want := (Attrs{"since": N(2011)}); !reflect.DeepEqual(d.RemovedEdgeAttrs, []Attrs{want}) {
				return fmt.Errorf("removed edge attributes %v, want [%v]", d.RemovedEdgeAttrs, want)
			}
			return nil
		}},
		{"indexed value loses its last carrier, a key leaves", func(g *Graph, l *ledger) error {
			return g.RemoveVertex(4) // the only city, the only "rare"; cascades to edge 1
		}, func(d *Delta) error {
			if want := (Attrs{"type": S("city"), "rare": B(true)}); !reflect.DeepEqual(d.RemovedAttrs, []Attrs{want}) || len(d.RemovedEdges) != 1 {
				return fmt.Errorf("delta %+v, want vertex 4 with %v and one cascade", d, want)
			}
			return nil
		}},
		{"an age value comes back on a new vertex", func(g *Graph, l *ledger) error {
			l.addVertex(g, Attrs{"type": S("city"), "age": N(20)})
			return nil
		}, nil},
		{"read half-applied", func(g *Graph, l *ledger) error {
			v := l.addVertex(g, Attrs{"type": S("person"), "age": N(21)})
			if got := g.VertexAttrs(v); got["age"] != N(21) { // freezes the open batch
				return fmt.Errorf("the added vertex reads %v", got)
			}
			l.addEdge(g, v, 1, "knows", Attrs{"since": N(2020)})
			return g.RemoveVertex(2)
		}, func(d *Delta) error {
			want := []Attrs{{"type": S("person"), "age": N(22)}}
			if !slices.Equal(d.RemovedVertices, []VertexID{2}) || !reflect.DeepEqual(d.RemovedAttrs, want) || !slices.Equal(d.RemovedEdges, nil) {
				return fmt.Errorf("delta %+v, want vertex 2 with %v and no edge", d, want)
			}
			return nil
		}},
	} {
		f, z := g.Fork(), g.Clone()
		lf, lz := l.fork(), l.fork()
		if err := step.apply(f, lf); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if err := step.apply(z, lz); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		lf.removed(f)
		lz.removed(z)
		d := f.Seal()
		z.Freeze()
		lf.check(t, f)
		lz.check(t, z)
		l.check(t, g)
		frozenEqual(t, f)
		if step.check != nil {
			if err := step.check(d); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		g, l = f, lf
	}
	if ids, ok := g.VerticesByAttr("type", S("city")); !ok || !slices.Equal(ids, []VertexID{6}) {
		t.Fatalf("cities %v %v, want [6]", ids, ok)
	}
	if ids, _ := g.VerticesByAttr("type", S("person")); !slices.Equal(ids, []VertexID{0, 1, 3, 7}) {
		t.Fatalf("persons %v, want [0 1 3 7]", ids)
	}
}

// TestNegativeZeroSharesCode states what a decode returns for -0: a column's
// dictionary is keyed by ==, under which -0 and 0 are one value, so the code
// is the one of whichever was encoded first, and so are the bits decoded.
func TestNegativeZeroSharesCode(t *testing.T) {
	negZero := N(math.Copysign(0, -1))
	g := New(0, 0)
	g.AddVertex(Attrs{"x": N(0)})
	g.AddVertex(Attrs{"x": negZero})
	g.AddVertex(Attrs{"y": negZero})
	g.AddVertex(Attrs{"y": N(0)})
	if c := g.VertexColumns()["x"]; len(c.Vals) != 2 || c.Codes[0] != c.Codes[1] {
		t.Fatalf("0 and -0 hold codes %v over %v", c.Codes, c.Vals)
	}
	for id, want := range map[VertexID]bool{0: false, 1: false, 2: true, 3: true} {
		a := g.VertexAttrs(id)
		v, ok := a["x"]
		if !ok {
			v = a["y"]
		}
		if v != N(0) || math.Signbit(v.Num) != want {
			t.Fatalf("vertex %d decodes to %v with sign bit %v, want %v", id, v, math.Signbit(v.Num), want)
		}
	}
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
		frozenEqual(t, f)
		if got := f.VertexAttrs(VertexID(f.NumVertices() - 1)); !reflect.DeepEqual(got, attrs) {
			t.Fatalf("the added vertex decodes to %v, want %v", got, attrs)
		}
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
	frozenEqual(t, f)
	if f.VertexAttrs(3) != nil || e3.VertexAttrs(3) == nil {
		t.Fatalf("vertex 3 reads %v after its removal, %v before", f.VertexAttrs(3), e3.VertexAttrs(3))
	}
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
	const n = 256
	g := buildChain(n)
	g.Freeze()
	// What buildChain and the loop below put in: vertex id's "i".
	want := func(id int) Value {
		if id < n {
			return N(float64(id))
		}
		return N(float64((id - n) % 300))
	}
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
						got := col.Vals[code]
						if code == 0 || k == "type" && got != S("person") || k == "i" && got != want(id) {
							t.Errorf("vertex %d %q reads %v (code %d)", id, k, got, code)
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
	for id := 0; id < g.NumVertices(); id++ {
		if got := g.VertexAttrs(VertexID(id)); !maps.Equal(got, Attrs{"type": S("person"), "i": want(id)}) {
			t.Fatalf("vertex %d decodes to %v", id, got)
		}
	}
	if inPlace < 150 {
		t.Fatalf("only %d of 200 epochs extended their predecessor's column in place", inPlace)
	}
}
