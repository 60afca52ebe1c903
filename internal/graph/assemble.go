package graph

import "fmt"

// CSR exposes the packed-adjacency snapshot for serialization. All slices
// are shared with the live snapshot and must be treated as read-only.
type CSR struct {
	OutOff    []int32 // len NumVertices+1
	InOff     []int32 // len NumVertices+1
	OutAdj    []Adj   // len NumLiveEdges
	InAdj     []Adj   // len NumLiveEdges
	TypeNames []string
}

// FrozenCSR returns the current packed snapshot, freezing first if needed.
func (g *Graph) FrozenCSR() CSR {
	c := g.snapshot()
	return CSR{OutOff: c.outOff, InOff: c.inOff, OutAdj: c.outAdj, InAdj: c.inAdj, TypeNames: c.typeNames}
}

// SnapshotParts is the complete frozen state a snapshot loader hands to
// Assemble: the dense vertex/edge tables (tombstoned slots included, with
// nil attrs for removed vertices), the tombstone lists, the prebuilt CSR,
// and the attribute keys to index. Assemble takes ownership of every slice.
type SnapshotParts struct {
	Vertices        []Vertex
	Edges           []Edge
	RemovedVertices []VertexID
	RemovedEdges    []EdgeID
	CSR             CSR
	IndexedKeys     []string
}

// Assemble reconstructs a Graph from snapshot parts without re-running
// Freeze: the CSR is installed as the frozen snapshot directly, and the
// mutable side (adjacency lists, type index, attribute indexes) is rebuilt
// from it in one O(V+E) pass; the attribute columns, which a snapshot does not
// store, are built from the attribute maps as Freeze builds them. The input is
// validated structurally — sizes, offset monotonicity, id ranges, type-table
// consistency — so a logically corrupt file fails here, not mid-query.
func Assemble(p SnapshotParts) (*Graph, error) {
	nv, ne := len(p.Vertices), len(p.Edges)
	live := ne - len(p.RemovedEdges)
	if len(p.CSR.OutOff) != nv+1 || len(p.CSR.InOff) != nv+1 {
		return nil, fmt.Errorf("graph: assemble: offset tables sized %d/%d, want %d", len(p.CSR.OutOff), len(p.CSR.InOff), nv+1)
	}
	if len(p.CSR.OutAdj) != live || len(p.CSR.InAdj) != live {
		return nil, fmt.Errorf("graph: assemble: adjacency sized %d/%d, want %d live edges", len(p.CSR.OutAdj), len(p.CSR.InAdj), live)
	}
	g := &Graph{
		vertices:  p.Vertices,
		edges:     p.Edges,
		out:       make([][]EdgeID, nv),
		in:        make([][]EdgeID, nv),
		typeIndex: make(map[string][]EdgeID),
	}
	for i := range g.vertices {
		if g.vertices[i].ID != VertexID(i) {
			return nil, fmt.Errorf("graph: assemble: vertex %d carries id %d", i, g.vertices[i].ID)
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.ID != EdgeID(i) {
			return nil, fmt.Errorf("graph: assemble: edge %d carries id %d", i, e.ID)
		}
		if e.From < 0 || int(e.From) >= nv || e.To < 0 || int(e.To) >= nv {
			return nil, fmt.Errorf("graph: assemble: edge %d endpoints %d->%d out of range (%d vertices)", i, e.From, e.To, nv)
		}
	}
	// Tombstones.
	if len(p.RemovedVertices) > 0 || len(p.RemovedEdges) > 0 {
		g.removedV = make([]bool, nv)
		g.removedE = make([]bool, ne)
		for _, v := range p.RemovedVertices {
			if v < 0 || int(v) >= nv || g.removedV[v] {
				return nil, fmt.Errorf("graph: assemble: bad removed vertex %d", v)
			}
			g.removedV[v] = true
		}
		for _, e := range p.RemovedEdges {
			if e < 0 || int(e) >= ne || g.removedE[e] {
				return nil, fmt.Errorf("graph: assemble: bad removed edge %d", e)
			}
			g.removedE[e] = true
		}
		g.nRemovedV = len(p.RemovedVertices)
		g.nRemovedE = len(p.RemovedEdges)
	}
	// Rebuild per-vertex adjacency from the CSR. The lists subslice one flat
	// backing array with capped capacity, so a later append on one vertex
	// (mutation on an assembled graph) reallocates instead of stomping its
	// neighbor's region.
	flatOut := make([]EdgeID, live)
	flatIn := make([]EdgeID, live)
	for i, a := range p.CSR.OutAdj {
		if a.Edge < 0 || int(a.Edge) >= ne {
			return nil, fmt.Errorf("graph: assemble: out-adjacency %d references edge %d of %d", i, a.Edge, ne)
		}
		flatOut[i] = a.Edge
	}
	for i, a := range p.CSR.InAdj {
		if a.Edge < 0 || int(a.Edge) >= ne {
			return nil, fmt.Errorf("graph: assemble: in-adjacency %d references edge %d of %d", i, a.Edge, ne)
		}
		flatIn[i] = a.Edge
	}
	for v := 0; v < nv; v++ {
		oa, ob := p.CSR.OutOff[v], p.CSR.OutOff[v+1]
		ia, ib := p.CSR.InOff[v], p.CSR.InOff[v+1]
		if oa > ob || ia > ib || int(ob) > live || int(ib) > live || oa < 0 || ia < 0 {
			return nil, fmt.Errorf("graph: assemble: offsets for vertex %d not monotone", v)
		}
		if ob > oa {
			g.out[v] = flatOut[oa:ob:ob]
		}
		if ib > ia {
			g.in[v] = flatIn[ia:ib:ib]
		}
	}
	if p.CSR.OutOff[nv] != int32(live) || p.CSR.InOff[nv] != int32(live) {
		return nil, fmt.Errorf("graph: assemble: offset tables end at %d/%d, want %d", p.CSR.OutOff[nv], p.CSR.InOff[nv], live)
	}
	// Type index over live edges, in id order (the order AddEdge produces).
	for i := range g.edges {
		if g.removedE != nil && g.removedE[i] {
			continue
		}
		e := &g.edges[i]
		g.typeIndex[e.Type] = append(g.typeIndex[e.Type], EdgeID(i))
	}
	// The CSR's type table must agree with the rebuilt index: same dense
	// numbering Freeze would produce.
	want := g.EdgeTypes()
	if len(want) != len(p.CSR.TypeNames) {
		return nil, fmt.Errorf("graph: assemble: %d edge types in CSR, %d in edge table", len(p.CSR.TypeNames), len(want))
	}
	for i, t := range want {
		if p.CSR.TypeNames[i] != t {
			return nil, fmt.Errorf("graph: assemble: CSR type %d is %q, edge table says %q", i, p.CSR.TypeNames[i], t)
		}
	}
	c := &csr{
		outAdj:    p.CSR.OutAdj,
		inAdj:     p.CSR.InAdj,
		outOff:    p.CSR.OutOff,
		inOff:     p.CSR.InOff,
		typeNames: p.CSR.TypeNames,
		typeIDs:   denseTypeIDs(p.CSR.TypeNames),
	}
	c.vcols, c.ecols = g.buildColumns()
	g.frozen.Store(c)
	if len(p.IndexedKeys) > 0 {
		g.BuildVertexIndex(p.IndexedKeys...)
	}
	return g, nil
}
