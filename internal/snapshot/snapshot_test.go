package snapshot

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

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

// assertSame checks the loaded graph is semantically identical to the
// original: counts, tombstones, per-vertex attrs, adjacency, CSR, types,
// and the rebuilt attribute index.
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
		if !reflect.DeepEqual(got.OutAdj(v), want.OutAdj(v)) || !reflect.DeepEqual(got.InAdj(v), want.InAdj(v)) {
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
	gi, _ := got.VerticesByAttr("type", graph.S("person"))
	wi, _ := want.VerticesByAttr("type", graph.S("person"))
	if !reflect.DeepEqual(gi, wi) {
		t.Fatalf("index lookup %v, want %v", gi, wi)
	}
}

func TestRoundTripBothDecodePaths(t *testing.T) {
	g := testGraph(t)
	blob, err := Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, zeroCopy := range []bool{false, true} {
		if zeroCopy && !hostLittleEndian() {
			continue // the zero-copy path is little-endian only
		}
		got, man, err := Load(blob, zeroCopy)
		if err != nil {
			t.Fatalf("Load(zeroCopy=%v): %v", zeroCopy, err)
		}
		assertSame(t, got, g)
		if man.Vertices != 6 || man.Edges != 6 || man.LiveEdges != 3 || man.EdgeTypes != 2 {
			t.Fatalf("manifest %+v", man)
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
		{"wrong version", func(b []byte) []byte { le.PutUint32(b[8:], 99); return b }, ErrVersion},
		{"byte-swapped endianness", func(b []byte) []byte {
			b[12], b[13], b[14], b[15] = b[15], b[14], b[13], b[12]
			return b
		}, ErrEndianness},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, ErrChecksum},
		{"flipped stored checksum", func(b []byte) []byte { b[88] ^= 0x01; return b }, ErrChecksum},
		{"wrong section count", func(b []byte) []byte { le.PutUint32(b[16:], 7); return b }, ErrFormat},
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
