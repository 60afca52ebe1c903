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
// Assemble: the dense edge table (tombstoned slots included), the attribute
// columns of the vertices and of the edges, the tombstone lists, the prebuilt
// CSR — whose offset tables give the vertex count — and the attribute keys to
// index. Assemble takes ownership of every slice and column; a column's Codes
// may alias read-only memory (a mapped file), which no later write touches.
type SnapshotParts struct {
	Edges           []Edge
	VertexColumns   map[string]*Column
	EdgeColumns     map[string]*Column
	RemovedVertices []VertexID
	RemovedEdges    []EdgeID
	CSR             CSR
	IndexedKeys     []string
}

// Assemble reconstructs a Graph from snapshot parts without re-running
// Freeze: the CSR and the columns are installed as the frozen layer directly,
// the mutable side (adjacency lists, type index) is rebuilt from the CSR in
// one O(V+E) pass, and the posting lists are sorted as Freeze does. The input
// is validated structurally — sizes, offset monotonicity, id ranges,
// type-table consistency, every column's codes and dictionary — so a
// logically corrupt file fails here, not mid-query.
func Assemble(p SnapshotParts) (*Graph, error) {
	nv, ne := len(p.CSR.OutOff)-1, len(p.Edges)
	live := ne - len(p.RemovedEdges)
	if nv < 0 || len(p.CSR.InOff) != nv+1 {
		return nil, fmt.Errorf("graph: assemble: offset tables sized %d/%d", len(p.CSR.OutOff), len(p.CSR.InOff))
	}
	if len(p.CSR.OutAdj) != live || len(p.CSR.InAdj) != live {
		return nil, fmt.Errorf("graph: assemble: adjacency sized %d/%d, want %d live edges", len(p.CSR.OutAdj), len(p.CSR.InAdj), live)
	}
	g := &Graph{
		edges:     p.Edges,
		out:       make([][]EdgeID, nv),
		in:        make([][]EdgeID, nv),
		typeIndex: make(map[string][]EdgeID),
		attrs:     &store{v: p.VertexColumns, e: p.EdgeColumns, nv: nv, ne: ne},
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
	if err := g.attrs.v.install(nv, g.removedV); err != nil {
		return nil, err
	}
	if err := g.attrs.e.install(ne, g.removedE); err != nil {
		return nil, err
	}
	// Rebuild per-vertex adjacency from the CSR. The lists subslice one flat
	// backing array with capped capacity, so a later append on one vertex
	// (mutation on an assembled graph) reallocates instead of stomping its
	// neighbor's region.
	flatOut := make([]EdgeID, live)
	flatIn := make([]EdgeID, live)
	nTypes := int32(len(p.CSR.TypeNames))
	for i, a := range p.CSR.OutAdj {
		if a.Edge < 0 || int(a.Edge) >= ne || a.Vertex < 0 || int(a.Vertex) >= nv || a.Type < 0 || a.Type >= nTypes {
			return nil, fmt.Errorf("graph: assemble: out-adjacency %d is %+v (%d edges, %d vertices, %d types)", i, a, ne, nv, nTypes)
		}
		flatOut[i] = a.Edge
	}
	for i, a := range p.CSR.InAdj {
		if a.Edge < 0 || int(a.Edge) >= ne || a.Vertex < 0 || int(a.Vertex) >= nv || a.Type < 0 || a.Type >= nTypes {
			return nil, fmt.Errorf("graph: assemble: in-adjacency %d is %+v (%d edges, %d vertices, %d types)", i, a, ne, nv, nTypes)
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
	g.BuildVertexIndex(p.IndexedKeys...)
	c := &csr{
		outAdj:    p.CSR.OutAdj,
		inAdj:     p.CSR.InAdj,
		outOff:    p.CSR.OutOff,
		inOff:     p.CSR.InOff,
		typeNames: p.CSR.TypeNames,
		typeIDs:   denseTypeIDs(p.CSR.TypeNames),
	}
	c.attrs = g.attrs
	c.post = g.postings(c.attrs, nil, nil)
	g.frozen.Store(c)
	return g, nil
}
