package snapshot

import (
	"bytes"
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// testGraph builds a small graph exercising every encodable feature: all
// three attribute kinds, multiple edge types, an attribute index, and
// tombstoned vertices and edges — one of them with attributes, which its
// removal drops.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(6, 8)
	for i := 0; i < 6; i++ {
		g.AddVertex(graph.Attrs{
			"type":   graph.S("person"),
			"age":    graph.N(float64(20 + i)),
			"active": graph.B(i%2 == 0),
		})
	}
	g.AddEdge(0, 1, "knows", graph.Attrs{"since": graph.N(2011)})
	g.AddEdge(1, 2, "knows", nil)
	g.AddEdge(2, 3, "likes", nil)
	g.AddEdge(3, 4, "knows", nil)
	g.AddEdge(4, 5, "likes", graph.Attrs{"weight": graph.N(0.5)})
	g.AddEdge(5, 0, "follows", nil)
	if err := g.RemoveEdge(2); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveVertex(4); err != nil {
		t.Fatal(err)
	}
	g.BuildVertexIndex("type", "age")
	g.Freeze()
	return g
}

// derivedGraph is testGraph after two sealed batches: the first removes the
// only vertex aged 20 and edge 0, the only one with "since", so their values
// stay in the dictionaries with no carrier; both add attributed elements.
func derivedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := testGraph(t)
	f := g.Fork()
	v := f.AddVertex(graph.Attrs{"type": graph.S("city"), "zone": graph.S("north")})
	f.AddEdge(v, 1, "visits", graph.Attrs{"weight": graph.N(2)})
	if err := f.RemoveVertex(0); err != nil {
		t.Fatal(err)
	}
	f.Seal()
	h := f.Fork()
	h.AddVertex(graph.Attrs{"age": graph.N(70), "active": graph.B(true)})
	h.Seal()
	return h
}

// negZeroGraph has a column whose first value is -0, which the 0 encoded
// after it shares.
func negZeroGraph(t testing.TB) *graph.Graph {
	g := graph.New(2, 0)
	g.AddVertex(graph.Attrs{"x": graph.N(math.Copysign(0, -1))})
	g.AddVertex(graph.Attrs{"x": graph.N(0)})
	g.Freeze()
	return g
}

// assertSame checks the loaded graph is semantically identical to the
// original: counts, tombstones, per-vertex attrs, adjacency, CSR, types,
// the columns field for field and the rebuilt posting lists.
func assertSame(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("sizes %d/%d, want %d/%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if got.NumLiveVertices() != want.NumLiveVertices() || got.NumLiveEdges() != want.NumLiveEdges() {
		t.Fatalf("live %d/%d, want %d/%d", got.NumLiveVertices(), got.NumLiveEdges(), want.NumLiveVertices(), want.NumLiveEdges())
	}
	if !reflect.DeepEqual(got.RemovedVertices(), want.RemovedVertices()) ||
		!reflect.DeepEqual(got.RemovedEdges(), want.RemovedEdges()) {
		t.Fatalf("tombstones differ: %v/%v vs %v/%v",
			got.RemovedVertices(), got.RemovedEdges(), want.RemovedVertices(), want.RemovedEdges())
	}
	for i := 0; i < want.NumVertices(); i++ {
		v := graph.VertexID(i)
		if !reflect.DeepEqual(got.VertexAttrs(v), want.VertexAttrs(v)) {
			t.Fatalf("vertex %d attrs %v, want %v", i, got.VertexAttrs(v), want.VertexAttrs(v))
		}
		if !slices.Equal(got.OutAdj(v), want.OutAdj(v)) || !slices.Equal(got.InAdj(v), want.InAdj(v)) {
			t.Fatalf("vertex %d adjacency differs", i)
		}
	}
	for i := 0; i < want.NumEdges(); i++ {
		e := graph.EdgeID(i)
		ge, we := got.Edge(e), want.Edge(e)
		if *ge != *we || !reflect.DeepEqual(got.EdgeAttrs(e), want.EdgeAttrs(e)) {
			t.Fatalf("edge %d: %+v %v, want %+v %v", i, ge, got.EdgeAttrs(e), we, want.EdgeAttrs(e))
		}
	}
	if !reflect.DeepEqual(got.EdgeTypes(), want.EdgeTypes()) {
		t.Fatalf("types %v, want %v", got.EdgeTypes(), want.EdgeTypes())
	}
	if !reflect.DeepEqual(got.IndexedKeys(), want.IndexedKeys()) {
		t.Fatalf("indexed keys %v, want %v", got.IndexedKeys(), want.IndexedKeys())
	}
	sameColumns(t, "vertex", got.VertexColumns(), want.VertexColumns())
	sameColumns(t, "edge", got.EdgeColumns(), want.EdgeColumns())
	for _, k := range want.IndexedKeys() {
		c := want.VertexColumns()[k]
		if c == nil {
			continue
		}
		for _, v := range c.Vals[1:] {
			gi, _ := got.VerticesByAttr(k, v)
			wi, _ := want.VerticesByAttr(k, v)
			if !slices.Equal(gi, wi) {
				t.Fatalf("posting list %s=%v: %v, want %v", k, v, gi, wi)
			}
		}
	}
}

// sameColumns holds two column sets to the same keys, codes and dictionary
// values, numbers compared by their bits.
func sameColumns(t *testing.T, kind string, got, want map[string]*graph.Column) {
	t.Helper()
	if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
		t.Fatalf("%s column keys %v, want %v", kind, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	for k, w := range want {
		g := got[k]
		if !slices.Equal(g.Codes, w.Codes) {
			t.Fatalf("%s column %q codes %v, want %v", kind, k, g.Codes, w.Codes)
		}
		same := len(g.Vals) == len(w.Vals)
		for i := 0; same && i < len(w.Vals); i++ {
			a, b := g.Vals[i], w.Vals[i]
			same = a.Kind == b.Kind && a.Str == b.Str && a.Bool == b.Bool && math.Float64bits(a.Num) == math.Float64bits(b.Num)
		}
		if !same {
			t.Fatalf("%s column %q dictionary %v, want %v", kind, k, g.Vals, w.Vals)
		}
	}
}

// TestRoundTripBothDecodePaths: Load(Pack(g)) on both decode paths is g —
// columns field for field, stale dictionary values and a -0 included — and
// packing twice, and repacking the loaded graph, give the same bytes.
func TestRoundTripBothDecodePaths(t *testing.T) {
	gen := func(name string, f float64) func() *graph.Graph {
		return func() *graph.Graph {
			g, err := datagen.Generate(name, f)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	graphs := []struct {
		name string
		g    func() *graph.Graph
	}{
		{"testGraph", func() *graph.Graph { return testGraph(t) }},
		{"stale dictionary", func() *graph.Graph { return derivedGraph(t) }},
		{"-0 first", func() *graph.Graph { return negZeroGraph(t) }},
		{"ldbc 1", gen("ldbc", 1)},
		{"dbpedia 1", gen("dbpedia", 1)},
		{"ldbc 8", gen("ldbc", 8)},
		{"dbpedia 8", gen("dbpedia", 8)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.HasSuffix(tc.name, " 8") {
				t.Skip("scale 8 in -short mode")
			}
			g := tc.g()
			blob, err := Pack(g)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := Pack(g); err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("packing twice differs (%v)", err)
			}
			for _, zeroCopy := range []bool{false, true} {
				if zeroCopy && !hostLittleEndian() {
					continue // the zero-copy path is little-endian only
				}
				got, man, err := Load(alignedCopy(blob), zeroCopy)
				if err != nil {
					t.Fatalf("Load(zeroCopy=%v): %v", zeroCopy, err)
				}
				assertSame(t, got, g)
				if man.Vertices != g.NumVertices() || man.Edges != g.NumEdges() || man.LiveEdges != g.NumLiveEdges() || man.EdgeTypes != len(g.EdgeTypes()) {
					t.Fatalf("manifest %+v", man)
				}
				if again, err := Pack(got); err != nil || !bytes.Equal(again, blob) {
					t.Fatalf("pack -> load(zeroCopy=%v) -> pack differs (%v)", zeroCopy, err)
				}
			}
		})
	}
	if c := negZeroGraph(t).VertexColumns()["x"]; len(c.Vals) != 2 || !math.Signbit(c.Vals[1].Num) {
		t.Fatalf("-0 first: dictionary %v, want the one value -0", c.Vals)
	}
	if c := derivedGraph(t).EdgeColumns()["since"]; len(c.Vals) != 2 || slices.ContainsFunc(c.Codes, func(code uint32) bool { return code != 0 }) {
		t.Fatalf("stale dictionary: since %v over %v, want a value no edge carries", c.Codes, c.Vals)
	}
}

// TestSealOverMapping seals a fork of a graph loaded from a mapped file (and,
// for the neighbouring windows of one array, from a read one): the batch adds
// attributed vertices and edges with values the dictionaries do not hold and
// removes an attributed vertex, which clears codes of columns whose arrays are
// the read-only mapping. No write reaches the mapping (it would fault) or a
// neighbouring column, the fork decodes what was written, and the loaded
// epoch reads as before.
func TestSealOverMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.snap")
	if _, err := WriteFile(path, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	decodeAll := func(g *graph.Graph) (vs, es []graph.Attrs) {
		for i := 0; i < g.NumVertices(); i++ {
			vs = append(vs, g.VertexAttrs(graph.VertexID(i)))
		}
		for i := 0; i < g.NumEdges(); i++ {
			es = append(es, g.EdgeAttrs(graph.EdgeID(i)))
		}
		return vs, es
	}
	for _, mode := range []Mode{ModeMmap, ModeRead} {
		if mode == ModeMmap && !(mmapSupported && hostLittleEndian()) {
			t.Log("no zero-copy load on this platform")
			continue
		}
		loaded, err := ReadFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		base := loaded.Graph
		beforeV, beforeE := decodeAll(base)
		wantV, wantE := slices.Clone(beforeV), slices.Clone(beforeE)

		f := base.Fork()
		added := []graph.Attrs{
			{"type": graph.S("city"), "age": graph.N(99), "zone": graph.S("north")},
			{"type": graph.S("person"), "active": graph.B(false)},
		}
		v := f.AddVertex(added[0])
		w := f.AddVertex(added[1])
		addedE := []graph.Attrs{{"since": graph.N(1999)}, {"weight": graph.N(0.25), "since": graph.N(2011)}}
		f.AddEdge(v, w, "knows", addedE[0])
		f.AddEdge(w, 0, "visits", addedE[1])
		if err := f.RemoveVertex(1); err != nil { // cascades edges 0 and 1
			t.Fatal(err)
		}
		f.Seal()
		wantV[1], wantE[0], wantE[1] = nil, nil, nil
		wantV, wantE = append(wantV, added...), append(wantE, addedE...)

		gotV, gotE := decodeAll(f)
		if !reflect.DeepEqual(gotV, wantV) || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("mode %d: the sealed fork decodes\n%v %v\nwant\n%v %v", mode, gotV, gotE, wantV, wantE)
		}
		if ids, _ := f.VerticesByAttr("type", graph.S("city")); !slices.Equal(ids, []graph.VertexID{v}) {
			t.Fatalf("mode %d: cities %v, want [%d]", mode, ids, v)
		}
		if gotV, gotE := decodeAll(base); !reflect.DeepEqual(gotV, beforeV) || !reflect.DeepEqual(gotE, beforeE) {
			t.Fatalf("mode %d: the loaded epoch now decodes\n%v %v\nwant\n%v %v", mode, gotV, gotE, beforeV, beforeE)
		}
	}
}

func TestPackDeterministic(t *testing.T) {
	g := testGraph(t)
	a, err := Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("packing the same construction twice yields different bytes")
	}
	// Load → repack is byte-identical too: the loaded graph walks in the
	// same canonical order the packer used.
	loaded, _, err := Load(a, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Pack(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("pack -> load -> pack is not byte-identical")
	}
}

func TestCorruptionRejectedDistinctly(t *testing.T) {
	blob, err := Pack(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"under header", func(b []byte) []byte { return b[:40] }, ErrTruncated},
		{"cut payload", func(b []byte) []byte { return b[:len(b)-17] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrMagic},
		{"wrong version", func(b []byte) []byte { le.PutUint32(b[offVersion:], 99); return b }, ErrVersion},
		{"format version 1", func(b []byte) []byte { le.PutUint32(b[offVersion:], 1); return b }, ErrVersion},
		{"byte-swapped endianness", func(b []byte) []byte {
			b[offEndian], b[offEndian+1], b[offEndian+2], b[offEndian+3] = b[offEndian+3], b[offEndian+2], b[offEndian+1], b[offEndian]
			return b
		}, ErrEndianness},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, ErrChecksum},
		{"flipped stored checksum", func(b []byte) []byte { b[offCRC] ^= 0x01; return b }, ErrChecksum},
		{"wrong section count", func(b []byte) []byte { le.PutUint32(b[offSections:], 7); return b }, ErrFormat},
	}
	for _, tc := range cases {
		data := tc.corrupt(append([]byte(nil), blob...))
		_, _, err := Load(data, false)
		if err == nil {
			t.Errorf("%s: Load accepted corrupt data", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
		// The sentinels stay distinct: the error matches exactly one of them.
		matches := 0
		for _, s := range []error{ErrMagic, ErrVersion, ErrEndianness, ErrChecksum, ErrTruncated, ErrFormat} {
			if errors.Is(err, s) {
				matches++
			}
		}
		if matches != 1 {
			t.Errorf("%s: error %v matches %d sentinels, want exactly 1", tc.name, err, matches)
		}
	}
}

// TestLoadRejectsBadColumns breaks each column invariant the loader checks in
// a valid image, checksum fixed up: every one is ErrFormat. testGraph's first
// column is the vertices' "active", whose dictionary is true, false.
func TestLoadRejectsBadColumns(t *testing.T) {
	blob, err := Pack(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	sec := func(b []byte, i int) []byte {
		off := le.Uint64(b[headerSize+16*i:])
		return b[off : off+le.Uint64(b[headerSize+16*i+8:])]
	}
	for name, edit := range map[string]func(b []byte){
		"keys out of order": func(b []byte) {
			d := sec(b, secColumns)
			a, k := le.Uint32(d[4:]), le.Uint32(d[colRecSize+4:])
			le.PutUint32(d[4:], k)
			le.PutUint32(d[colRecSize+4:], a)
		},
		"edge column first":  func(b []byte) { le.PutUint32(sec(b, secColumns), 1) },
		"unknown value kind": func(b []byte) { le.PutUint64(sec(b, secDict), 3) },
		"bool of 2":          func(b []byte) { le.PutUint64(sec(b, secDict)[8:], 2) },
		"string ref past heap": func(b []byte) {
			le.PutUint64(sec(b, secDict), uint64(graph.KindString))
			le.PutUint64(sec(b, secDict)[8:], 1<<40)
		},
		"value twice":                func(b []byte) { copy(sec(b, secDict)[dictRecSize:], sec(b, secDict)[:dictRecSize]) },
		"code past its dictionary":   func(b []byte) { le.PutUint32(sec(b, secCodes), 3) },
		"removed vertex with a code": func(b []byte) { le.PutUint32(sec(b, secCodes)[4*4:], 1) },
	} {
		img := append([]byte(nil), blob...)
		edit(img)
		le.PutUint32(img[offCRC:], crc32.Checksum(img[headerSize:], castagnoli))
		if _, _, err := Load(img, false); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: %v, want %v", name, err, ErrFormat)
		}
	}
}

func TestWriteAndReadFile(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "test.snap")
	wrote, err := WriteFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if wrote.Vertices != 6 || wrote.LiveEdges != 3 || wrote.Bytes == 0 {
		t.Fatalf("write manifest %+v", wrote)
	}

	modes := []Mode{ModeRead, ModeAuto}
	if mmapSupported && hostLittleEndian() {
		modes = append(modes, ModeMmap)
	}
	for _, mode := range modes {
		loaded, err := ReadFile(path, mode)
		if err != nil {
			t.Fatalf("ReadFile(mode=%d): %v", mode, err)
		}
		assertSame(t, loaded.Graph, g)
		man := loaded.Manifest
		if man.Checksum != wrote.Checksum || man.Bytes != wrote.Bytes || man.Path != path {
			t.Fatalf("mode %d manifest %+v, want checksum %08x", mode, man, wrote.Checksum)
		}
		wantMapped := mode == ModeMmap || (mode == ModeAuto && mmapSupported && hostLittleEndian())
		if man.Mapped != wantMapped {
			t.Fatalf("mode %d: mapped=%v, want %v", mode, man.Mapped, wantMapped)
		}
		// Copy out something attr-backed before Close, proving the graph is
		// usable, then release the mapping.
		if loaded.Graph.VertexAttrs(0)["type"] != graph.S("person") {
			t.Fatal("loaded graph unusable")
		}
		if err := loaded.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.snap"), ModeAuto); err == nil {
		t.Fatal("ReadFile on a missing file succeeded")
	}
}
