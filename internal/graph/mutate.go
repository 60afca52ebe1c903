package graph

import "fmt"

// Mutation support: tombstone removal and cloning.
//
// The mutation story for a serving graph is clone-and-swap, not in-place
// update: readers hold the frozen CSR of an old clone while a writer applies
// a batch to a Fork (derive.go) — or, from scratch, to a Clone it then
// indexes and freezes — and publishes the new graph behind whatever pointer
// the caller owns. IDs are dense and never reused, so
// removal tombstones the slot: a removed vertex keeps its ID, a removed edge
// its record; either loses its attributes, and an edge leaves every adjacency
// list, the type index, and the next frozen CSR.

// VertexRemoved reports whether v has been tombstoned. False for graphs that
// never saw a removal (the bitmap is allocated lazily).
func (g *Graph) VertexRemoved(v VertexID) bool {
	return g.removedV != nil && g.removedV[v]
}

// EdgeRemoved reports whether e has been tombstoned.
func (g *Graph) EdgeRemoved(e EdgeID) bool {
	return g.removedE != nil && g.removedE[e]
}

// NumRemovedVertices returns the number of tombstoned vertex slots.
func (g *Graph) NumRemovedVertices() int { return g.nRemovedV }

// NumRemovedEdges returns the number of tombstoned edge slots.
func (g *Graph) NumRemovedEdges() int { return g.nRemovedE }

// NumLiveVertices returns the number of non-tombstoned vertices.
func (g *Graph) NumLiveVertices() int { return len(g.out) - g.nRemovedV }

// NumLiveEdges returns the number of non-tombstoned edges.
func (g *Graph) NumLiveEdges() int { return len(g.edges) - g.nRemovedE }

// RemovedVertices returns the tombstoned vertex ids in ascending order.
func (g *Graph) RemovedVertices() []VertexID {
	if g.nRemovedV == 0 {
		return nil
	}
	ids := make([]VertexID, 0, g.nRemovedV)
	for i, r := range g.removedV {
		if r {
			ids = append(ids, VertexID(i))
		}
	}
	return ids
}

// RemovedEdges returns the tombstoned edge ids in ascending order.
func (g *Graph) RemovedEdges() []EdgeID {
	if g.nRemovedE == 0 {
		return nil
	}
	ids := make([]EdgeID, 0, g.nRemovedE)
	for i, r := range g.removedE {
		if r {
			ids = append(ids, EdgeID(i))
		}
	}
	return ids
}

func (g *Graph) ensureTombstones() {
	if g.removedV == nil {
		g.removedV = make([]bool, len(g.out))
	}
	if g.removedE == nil {
		g.removedE = make([]bool, len(g.edges))
	}
}

// removeID filters one id out of a dense id list, preserving order. The
// backing array is owned by this graph (Clone copies adjacency into its own
// flat arrays), so the in-place shift is safe.
func removeID(ids []EdgeID, id EdgeID) []EdgeID {
	for i, e := range ids {
		if e == id {
			copy(ids[i:], ids[i+1:])
			return ids[:len(ids)-1]
		}
	}
	return ids
}

// RemoveEdge tombstones an edge: it disappears from both endpoints'
// adjacency lists, the type index, the attribute columns and the next frozen
// CSR, while its record stays addressable under the old id. Removing an
// unknown or already-removed edge is an error.
func (g *Graph) RemoveEdge(id EdgeID) error {
	if id < 0 || int(id) >= len(g.edges) {
		return fmt.Errorf("graph: RemoveEdge: edge %d out of range (have %d edges)", id, len(g.edges))
	}
	if g.EdgeRemoved(id) {
		return fmt.Errorf("graph: RemoveEdge: edge %d already removed", id)
	}
	g.ensureTombstones()
	e := &g.edges[id]
	g.out[e.From] = removeID(g.out[e.From], id)
	g.in[e.To] = removeID(g.in[e.To], id)
	if rest := removeID(g.typeIndex[e.Type], id); len(rest) == 0 {
		delete(g.typeIndex, e.Type)
	} else {
		g.typeIndex[e.Type] = rest
	}
	g.removedE[id] = true
	g.nRemovedE++
	g.goneE = append(g.goneE, id)
	g.frozen.Store(nil)
	return nil
}

// RemoveVertex tombstones a vertex and every incident edge. The slot keeps
// its dense id and no attribute, so candidate scans, the posting lists and
// the attribute domain skip it naturally.
func (g *Graph) RemoveVertex(id VertexID) error {
	if id < 0 || int(id) >= len(g.out) {
		return fmt.Errorf("graph: RemoveVertex: vertex %d out of range (have %d vertices)", id, len(g.out))
	}
	if g.VertexRemoved(id) {
		return fmt.Errorf("graph: RemoveVertex: vertex %d already removed", id)
	}
	g.ensureTombstones()
	// Copy the incident lists first: RemoveEdge rewrites them while we walk.
	// A self-loop appears in both lists, hence the EdgeRemoved re-check.
	incident := make([]EdgeID, 0, len(g.out[id])+len(g.in[id]))
	incident = append(incident, g.out[id]...)
	incident = append(incident, g.in[id]...)
	for _, eid := range incident {
		if !g.EdgeRemoved(eid) {
			if err := g.RemoveEdge(eid); err != nil {
				return err
			}
		}
	}
	g.goneV = append(g.goneV, id)
	g.removedV[id] = true
	g.nRemovedV++
	g.frozen.Store(nil)
	return nil
}

// Clone returns a deep copy of the graph's structure: edge records,
// adjacency lists, the type index, indexed keys and tombstones. The attribute
// store is shared (no encode writes where a holder can read, columns.go), as
// are the maps not yet encoded (immutable by the AddVertex/AddEdge contract).
// The clone starts unfrozen; its first Freeze builds a CSR and posting lists
// independent of the original's.
//
// Only flat arrays are copied: every adjacency and type-index list of the
// clone is a capacity-clamped window into one backing array, so the copy
// allocates per graph, not per vertex, and an append to one list reallocates
// that list instead of running into its neighbour's.
func (g *Graph) Clone() *Graph {
	nv, live := len(g.out), len(g.edges)-g.nRemovedE
	c := &Graph{
		edges:     append([]Edge(nil), g.edges...),
		out:       make([][]EdgeID, nv),
		in:        make([][]EdgeID, nv),
		typeIndex: make(map[string][]EdgeID, len(g.typeIndex)),
		indexed:   append([]string(nil), g.indexed...),
		attrs:     g.attrs,
		pendV:     append([]Attrs(nil), g.pendV...),
		pendE:     append([]Attrs(nil), g.pendE...),
		goneV:     append([]VertexID(nil), g.goneV...),
		goneE:     append([]EdgeID(nil), g.goneE...),
		removedV:  append([]bool(nil), g.removedV...),
		removedE:  append([]bool(nil), g.removedE...),
		nRemovedV: g.nRemovedV,
		nRemovedE: g.nRemovedE,
	}
	// Every live edge sits in exactly one out list, one in list and one type
	// list, so each of the three families fills exactly `live` slots.
	flat := make([]EdgeID, 3*live)
	window := func(ids []EdgeID) []EdgeID {
		w := flat[:len(ids):len(ids)]
		flat = flat[len(ids):]
		copy(w, ids)
		return w
	}
	for v := range g.out {
		if len(g.out[v]) > 0 {
			c.out[v] = window(g.out[v])
		}
		if len(g.in[v]) > 0 {
			c.in[v] = window(g.in[v])
		}
	}
	for t, ids := range g.typeIndex {
		c.typeIndex[t] = window(ids)
	}
	return c
}
