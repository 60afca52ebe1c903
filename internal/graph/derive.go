package graph

import (
	"maps"
	"slices"
)

// Deriving the next epoch from the current one.
//
// Fork is Clone plus a journal; Seal ends the batch applied to the fork and
// builds its frozen layer — the CSR, the attribute columns and the attribute
// index — from the predecessor's instead of from the fork's own tables: the
// rows of the vertices the batch touched are rebuilt, everything between them
// is block-copied, the batch's elements are appended to the columns, and only
// the index buckets whose values the batch touched are rewritten. The result
// is what BuildVertexIndex and Freeze would build on the same graph (the
// derive differential in the repo root holds them to that; columns compare by
// what they decode to, since a derived dictionary keeps its code numbering),
// at the cost of a few array copies and work proportional to the batch.
// Nothing a reader of the predecessor can see is written: a fork that is
// discarded unsealed — a batch that failed validation — leaves no trace.

// fork is the journal of an open Fork. Additions need no record (they are
// the ids at and above the base's sizes); removals are logged as they happen.
type fork struct {
	base         *Graph
	removedV     []VertexID
	removedAttrs []Attrs // removedV[i]'s attributes before the removal
	removedE     []EdgeID
}

// Delta is what one batch changed between a graph and the fork sealed from
// it — the input of every derived structure above the graph (statistics
// domain, matcher and collector caches).
type Delta struct {
	// FirstVertex and FirstEdge are the predecessor's NumVertices and
	// NumEdges: ids at and above them were added by the batch.
	FirstVertex VertexID
	FirstEdge   EdgeID
	// RemovedVertices are the vertices the batch tombstoned, in removal
	// order, with the attributes each carried before (RemovedAttrs[i]
	// belongs to RemovedVertices[i]). RemovedEdges includes the cascades.
	// Both may name elements the same batch added.
	RemovedVertices []VertexID
	RemovedAttrs    []Attrs
	RemovedEdges    []EdgeID
	// EdgeTypes is the type of every edge the batch added or removed;
	// Vertices says whether it added or removed any vertex.
	EdgeTypes map[string]struct{}
	Vertices  bool
}

// Fork returns a Clone of g that journals the batch applied to it, for Seal.
// g must not be mutated while the fork is open.
func (g *Graph) Fork() *Graph {
	c := g.Clone()
	c.fork = &fork{base: g}
	return c
}

// Seal closes the batch applied to a Fork: it installs the frozen CSR and
// the attribute index (over the predecessor's IndexedKeys), both derived from
// the predecessor's, drops the journal, and returns what the batch changed.
// Afterwards g is an ordinary frozen graph with no tie to its predecessor.
// Seal panics on a graph that is not an open fork.
func (g *Graph) Seal() *Delta {
	f := g.fork
	if f == nil {
		panic("graph: Seal on a graph that is not an open Fork")
	}
	g.fork = nil
	d := &Delta{
		FirstVertex:     VertexID(len(f.base.vertices)),
		FirstEdge:       EdgeID(len(f.base.edges)),
		RemovedVertices: f.removedV,
		RemovedAttrs:    f.removedAttrs,
		RemovedEdges:    f.removedE,
		EdgeTypes:       make(map[string]struct{}),
		Vertices:        len(f.removedV) > 0 || len(g.vertices) > len(f.base.vertices),
	}
	// Rows to rebuild: both endpoints of every added or removed edge. Rows of
	// added vertices are always rebuilt, so only older ids are collected.
	var touched []VertexID
	touch := func(id EdgeID) {
		e := &g.edges[id]
		d.EdgeTypes[e.Type] = struct{}{}
		if e.From < d.FirstVertex {
			touched = append(touched, e.From)
		}
		if e.To < d.FirstVertex {
			touched = append(touched, e.To)
		}
	}
	for id := int(d.FirstEdge); id < len(g.edges); id++ {
		touch(EdgeID(id))
	}
	for _, id := range d.RemovedEdges {
		touch(id)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)

	prev := f.base.snapshot()
	c := g.spliceCSR(prev, touched)
	g.spliceColumns(c, prev, d)
	g.frozen.Store(c)
	g.vattrIndex = g.deriveIndex(f.base.vattrIndex, d)
	return d
}

// spliceColumns derives c's attribute columns from its predecessor's: the
// batch's elements are encoded or cleared, everything else is shared.
func (g *Graph) spliceColumns(c, prev *csr, d *Delta) {
	var gone, born []cell
	for i, id := range d.RemovedVertices {
		if id < d.FirstVertex {
			gone = append(gone, cell{int(id), d.RemovedAttrs[i]})
		}
	}
	for id := int(d.FirstVertex); id < len(g.vertices); id++ {
		born = append(born, cell{id, g.vertices[id].Attrs}) // nil attrs once removed
	}
	inPlace := prev.extended.CompareAndSwap(false, true)
	c.vcols = deriveColumns(prev.vcols, inPlace, len(g.vertices), gone, born)
	gone, born = gone[:0], born[:0]
	for _, id := range d.RemovedEdges {
		if id < d.FirstEdge {
			gone = append(gone, cell{int(id), g.edges[id].Attrs})
		}
	}
	for id := int(d.FirstEdge); id < len(g.edges); id++ {
		if !g.EdgeRemoved(EdgeID(id)) {
			born = append(born, cell{id, g.edges[id].Attrs})
		}
	}
	c.ecols = deriveColumns(prev.ecols, inPlace, len(g.edges), gone, born)
}

// spliceCSR builds g's packed adjacency from its predecessor's: touched (old
// vertex ids, ascending) and every vertex the predecessor did not have get
// their rows from g's adjacency lists, the runs between them are copied.
func (g *Graph) spliceCSR(prev *csr, touched []VertexID) *csr {
	c := &csr{typeNames: g.EdgeTypes()}
	// remap is old dense type id → new, nil while the numbering stands. A
	// type that lost its last edge has no entry — and no half-edge left in an
	// untouched row, since both ends of a removed edge are touched.
	var remap []int32
	if slices.Equal(c.typeNames, prev.typeNames) {
		c.typeNames, c.typeIDs = prev.typeNames, prev.typeIDs
	} else {
		c.typeIDs = denseTypeIDs(c.typeNames)
		remap = make([]int32, len(prev.typeNames))
		for i, t := range prev.typeNames {
			remap[i] = c.typeIDs[t]
		}
	}
	c.outOff, c.outAdj = g.spliceSide(c, prev.outOff, prev.outAdj, g.out, true, touched, remap)
	c.inOff, c.inAdj = g.spliceSide(c, prev.inOff, prev.inAdj, g.in, false, touched, remap)
	return c
}

// spliceSide derives one direction's offset table and half-edge array.
func (g *Graph) spliceSide(c *csr, off []int32, adj []Adj, rows [][]EdgeID, outgoing bool, touched []VertexID, remap []int32) ([]int32, []Adj) {
	nv, prevNV := len(g.vertices), len(off)-1
	newOff := make([]int32, nv+1)
	newAdj := make([]Adj, len(g.edges)-g.nRemovedE)
	pos := int32(0)
	rebuild := func(v int) {
		newOff[v] = pos
		for _, eid := range rows[v] {
			e := &g.edges[eid]
			far := e.From
			if outgoing {
				far = e.To
			}
			newAdj[pos] = Adj{Edge: eid, Vertex: far, Type: c.typeIDs[e.Type]}
			pos++
		}
	}
	from := 0
	copyRun := func(to int) {
		if from >= to {
			return
		}
		shift := pos - off[from]
		run := newAdj[pos : int(pos)+copy(newAdj[pos:], adj[off[from]:off[to]])]
		for v := from; v < to; v++ {
			newOff[v] = off[v] + shift
		}
		if remap != nil {
			for i := range run {
				run[i].Type = remap[run[i].Type]
			}
		}
		pos += int32(len(run))
	}
	for _, v := range touched {
		copyRun(int(v))
		rebuild(int(v))
		from = int(v) + 1
	}
	copyRun(prevNV)
	for v := prevNV; v < nv; v++ {
		rebuild(v)
	}
	newOff[nv] = pos
	return newOff, newAdj
}

// deriveIndex builds g's attribute index from its predecessor's. Keys no
// touched vertex carries keep the predecessor's value map (shared, read-only
// on both sides); a touched key gets its own copy of the map in which only
// the touched values' buckets are rewritten — survivors of the old bucket,
// then the batch's additions, which keeps BuildVertexIndex's ascending order.
func (g *Graph) deriveIndex(prev map[string]map[Value][]VertexID, d *Delta) map[string]map[Value][]VertexID {
	if prev == nil {
		return nil
	}
	// indexed key → value → ids the batch adds (an empty list: removals only).
	touched := make(map[string]map[Value][]VertexID)
	note := func(attrs Attrs, add bool, id VertexID) {
		for k, val := range attrs {
			if _, indexed := prev[k]; !indexed {
				continue
			}
			byVal := touched[k]
			if byVal == nil {
				byVal = make(map[Value][]VertexID)
				touched[k] = byVal
			}
			if add {
				byVal[val] = append(byVal[val], id)
			} else if _, ok := byVal[val]; !ok {
				byVal[val] = nil
			}
		}
	}
	for i, id := range d.RemovedVertices {
		if id < d.FirstVertex {
			note(d.RemovedAttrs[i], false, id)
		}
	}
	for id := int(d.FirstVertex); id < len(g.vertices); id++ {
		note(g.vertices[id].Attrs, true, VertexID(id)) // nil attrs once removed
	}
	idx := maps.Clone(prev)
	for k, byVal := range touched {
		m := maps.Clone(prev[k])
		for val, added := range byVal {
			old := m[val]
			bucket := make([]VertexID, 0, len(old)+len(added))
			for _, id := range old {
				if !g.VertexRemoved(id) {
					bucket = append(bucket, id)
				}
			}
			if bucket = append(bucket, added...); len(bucket) == 0 {
				delete(m, val)
			} else {
				m[val] = bucket
			}
		}
		idx[k] = m
	}
	return idx
}
