package graph

import (
	"reflect"
	"slices"
	"testing"
)

// chain builds a tiny graph: p0 -knows-> p1 -knows-> p2, p0 -likes-> p2,
// with a "type" attribute on every vertex.
func chain(t *testing.T) *Graph {
	t.Helper()
	g := New(3, 3)
	for i := 0; i < 3; i++ {
		g.AddVertex(Attrs{"type": S("person"), "idx": N(float64(i))})
	}
	g.AddEdge(0, 1, "knows", nil)
	g.AddEdge(1, 2, "knows", Attrs{"since": N(2011)})
	g.AddEdge(0, 2, "likes", nil)
	return g
}

func TestRemoveEdge(t *testing.T) {
	g := chain(t)
	g.Freeze()
	if err := g.RemoveEdge(1); err != nil {
		t.Fatal(err)
	}
	if !g.EdgeRemoved(1) || g.EdgeRemoved(0) {
		t.Fatalf("tombstones wrong: removed(1)=%v removed(0)=%v", g.EdgeRemoved(1), g.EdgeRemoved(0))
	}
	if g.NumLiveEdges() != 2 || g.NumEdges() != 3 {
		t.Fatalf("live=%d total=%d, want 2/3", g.NumLiveEdges(), g.NumEdges())
	}
	// The record stays addressable; adjacency, type index and columns forget
	// it.
	if e := g.Edge(1); e.From != 1 || e.To != 2 || e.Type != "knows" {
		t.Fatalf("removed edge record mangled: %+v", e)
	}
	if a := g.EdgeAttrs(1); a != nil {
		t.Fatalf("removed edge keeps attrs: %v", a)
	}
	if got := g.Out(1); len(got) != 0 {
		t.Fatalf("out(1) = %v, want empty", got)
	}
	if got := g.EdgesByType("knows"); !reflect.DeepEqual(got, []EdgeID{0}) {
		t.Fatalf("knows index = %v, want [0]", got)
	}
	// The next Freeze drops it from the CSR.
	if adj := g.OutAdj(1); len(adj) != 0 {
		t.Fatalf("frozen out-adjacency of 1 = %v, want empty", adj)
	}
	if got := g.RemovedEdges(); !reflect.DeepEqual(got, []EdgeID{1}) {
		t.Fatalf("RemovedEdges = %v", got)
	}
	// Double removal and out-of-range ids are errors.
	if err := g.RemoveEdge(1); err == nil {
		t.Fatal("double RemoveEdge succeeded")
	}
	if err := g.RemoveEdge(99); err == nil {
		t.Fatal("out-of-range RemoveEdge succeeded")
	}
}

func TestRemoveVertexCascades(t *testing.T) {
	g := chain(t)
	g.AddEdge(2, 2, "self", nil) // self-loop exercises the double-visit guard
	if err := g.RemoveVertex(2); err != nil {
		t.Fatal(err)
	}
	if !g.VertexRemoved(2) || g.NumLiveVertices() != 2 {
		t.Fatalf("vertex 2 not tombstoned (live=%d)", g.NumLiveVertices())
	}
	// All three incident edges (1->2, 0->2, the self-loop) cascade.
	if g.NumRemovedEdges() != 3 {
		t.Fatalf("removed %d edges, want 3", g.NumRemovedEdges())
	}
	if a := g.VertexAttrs(2); a != nil {
		t.Fatalf("removed vertex keeps attrs: %v", a)
	}
	if a := g.EdgeAttrs(1); a != nil {
		t.Fatalf("cascaded edge keeps attrs: %v", a)
	}
	if got := g.EdgesByType("self"); got != nil {
		t.Fatalf("self index survives: %v", got)
	}
	// Only 0 -knows-> 1 is left.
	g.Freeze()
	if adj := g.OutAdj(0); len(adj) != 1 || adj[0].Vertex != 1 {
		t.Fatalf("out-adjacency of 0 = %v", adj)
	}
	if err := g.RemoveVertex(2); err == nil {
		t.Fatal("double RemoveVertex succeeded")
	}
	// Adding an edge to a tombstoned endpoint panics like out-of-range.
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge to removed vertex did not panic")
		}
	}()
	g.AddEdge(0, 2, "knows", nil)
}

func TestCloneIsolation(t *testing.T) {
	g := chain(t)
	g.BuildVertexIndex("type")
	g.Freeze()
	before := g.Summary()

	c := g.Clone()
	if err := c.RemoveVertex(1); err != nil {
		t.Fatal(err)
	}
	c.AddVertex(Attrs{"type": S("person")})
	c.AddEdge(0, 3, "knows", nil)
	c.Freeze() // encodes the clone's batch beside the original's columns

	// The original is untouched: counts, adjacency, tombstones, CSR.
	if after := g.Summary(); !reflect.DeepEqual(before, after) {
		t.Fatalf("original changed: %+v -> %+v", before, after)
	}
	if g.NumRemovedVertices() != 0 || g.VertexRemoved(1) {
		t.Fatal("clone removal leaked into the original")
	}
	if got := g.Out(0); len(got) != 2 {
		t.Fatalf("original out(0) = %v, want 2 edges", got)
	}
	if adj := g.OutAdj(1); len(adj) != 1 {
		t.Fatalf("original CSR changed: out-adjacency of 1 = %v", adj)
	}
	if a := g.VertexAttrs(1); a["type"] != S("person") || g.EdgeAttrs(1)["since"] != N(2011) {
		t.Fatalf("original columns changed: vertex 1 %v, edge 1 %v", a, g.EdgeAttrs(1))
	}
	if ids, _ := g.VerticesByAttr("type", S("person")); !reflect.DeepEqual(ids, []VertexID{0, 1, 2}) {
		t.Fatalf("original index changed: persons %v", ids)
	}
	// And the clone sees its own state.
	if c.NumLiveVertices() != 3 || c.NumLiveEdges() != 2 {
		t.Fatalf("clone live counts %d/%d, want 3/2", c.NumLiveVertices(), c.NumLiveEdges())
	}
	if ids, _ := c.VerticesByAttr("type", S("person")); !reflect.DeepEqual(ids, []VertexID{0, 2, 3}) {
		t.Fatalf("clone persons %v, want [0 2 3]", ids)
	}
}

func TestAssembleRoundTrip(t *testing.T) {
	g := chain(t)
	g.AddVertex(Attrs{"type": S("city")})
	g.AddEdge(2, 3, "locatedIn", nil)
	if err := g.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	g.BuildVertexIndex("type")
	g.Freeze()

	p := partsOf(g)
	p.RemovedVertices, p.RemovedEdges, p.IndexedKeys = g.RemovedVertices(), g.RemovedEdges(), g.IndexedKeys()
	got, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumLiveEdges() != g.NumLiveEdges() {
		t.Fatalf("assembled %d vertices / %d live edges, want %d/%d",
			got.NumVertices(), got.NumLiveEdges(), g.NumVertices(), g.NumLiveEdges())
	}
	// eqIDs treats nil and empty as equal: RemoveEdge shrinks a list to
	// empty-non-nil where Assemble leaves it nil.
	eqIDs := func(a, b []EdgeID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if !eqIDs(got.Out(v), g.Out(v)) || !eqIDs(got.In(v), g.In(v)) {
			t.Fatalf("adjacency of %d differs: %v/%v vs %v/%v", v, got.Out(v), got.In(v), g.Out(v), g.In(v))
		}
		if !reflect.DeepEqual(got.OutAdj(v), g.OutAdj(v)) {
			t.Fatalf("CSR of %d differs", v)
		}
	}
	if !reflect.DeepEqual(got.EdgeTypes(), g.EdgeTypes()) {
		t.Fatalf("edge types %v vs %v", got.EdgeTypes(), g.EdgeTypes())
	}
	if !reflect.DeepEqual(got.IndexedKeys(), g.IndexedKeys()) {
		t.Fatalf("indexed keys %v vs %v", got.IndexedKeys(), g.IndexedKeys())
	}
	ids, ok := got.VerticesByAttr("type", S("person"))
	if !ok || len(ids) != 3 {
		t.Fatalf("rebuilt index: %v %v", ids, ok)
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if !reflect.DeepEqual(got.VertexAttrs(v), g.VertexAttrs(v)) {
			t.Fatalf("vertex %d attrs %v, want %v", v, got.VertexAttrs(v), g.VertexAttrs(v))
		}
	}
	for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
		if !reflect.DeepEqual(got.EdgeAttrs(e), g.EdgeAttrs(e)) {
			t.Fatalf("edge %d attrs %v, want %v", e, got.EdgeAttrs(e), g.EdgeAttrs(e))
		}
	}

	// Mutating the assembled graph must not stomp a neighbor's adjacency:
	// the flat-backed lists are capacity-capped, so append reallocates.
	before := append([]EdgeID(nil), got.Out(1)...)
	got.AddEdge(0, 3, "knows", nil)
	if !reflect.DeepEqual(got.Out(1), before) {
		t.Fatalf("append on vertex 0 stomped vertex 1's list: %v -> %v", before, got.Out(1))
	}
}

func TestAssembleRejectsCorruptParts(t *testing.T) {
	g := chain(t)
	g.Freeze()
	for name, corrupt := range map[string]func(*SnapshotParts){
		"short offsets": func(p *SnapshotParts) { p.CSR.OutOff = p.CSR.OutOff[:2] },
		"short edge column": func(p *SnapshotParts) {
			c := p.EdgeColumns["since"]
			c.Codes = c.Codes[:1]
		},
		"code past its dictionary": func(p *SnapshotParts) {
			c := p.VertexColumns["type"]
			c.Codes = slices.Clone(c.Codes)
			c.Codes[0] = uint32(len(c.Vals))
		},
		"value twice in a dictionary": func(p *SnapshotParts) {
			c := p.VertexColumns["type"]
			c.Vals = append(slices.Clip(c.Vals), c.Vals[1])
		},
		"removed vertex with a code": func(p *SnapshotParts) { p.RemovedVertices = []VertexID{0} },
		"far vertex out of range": func(p *SnapshotParts) {
			p.CSR.OutAdj = append([]Adj(nil), p.CSR.OutAdj...)
			p.CSR.OutAdj[0].Vertex = 7
		},
		"bad removed vertex": func(p *SnapshotParts) { p.RemovedVertices = []VertexID{99} },
		"bad endpoint": func(p *SnapshotParts) {
			p.Edges = append([]Edge(nil), p.Edges...)
			p.Edges[0].To = 42
		},
		"type table mismatch": func(p *SnapshotParts) { p.CSR.TypeNames = []string{"knows", "zzz"} },
	} {
		p := partsOf(g)
		corrupt(&p)
		if _, err := Assemble(p); err == nil {
			t.Errorf("%s: Assemble accepted corrupt parts", name)
		}
	}
}

// partsOf is what a snapshot of g holds, tombstones and index left out: its
// columns' codes and dictionaries, in columns of Assemble's own.
func partsOf(g *Graph) SnapshotParts {
	own := func(cols map[string]*Column) map[string]*Column {
		out := make(map[string]*Column, len(cols))
		for k, c := range cols {
			out[k] = &Column{Codes: c.Codes, Vals: c.Vals}
		}
		return out
	}
	return SnapshotParts{Edges: slices.Clone(g.edges), VertexColumns: own(g.VertexColumns()),
		EdgeColumns: own(g.EdgeColumns()), CSR: g.FrozenCSR()}
}
