package graph

import "slices"

// Deriving the next epoch from the current one.
//
// A Fork's batch is encoded by Seal, not by a Freeze, so the encoder's removal
// lists are the batch's. Seal builds the frozen layer from the predecessor's:
// the CSR rows of the vertices the batch touched are rebuilt and the runs
// between them block-copied, the batch is encoded into the columns, and only
// the posting lists of keys it touched are sorted again — what Freeze would
// build on the same graph (the derive differential in the repo root and
// FuzzSealColumns hold them to that, and to what the tests wrote), at a cost
// proportional to the batch. Nothing a reader of the predecessor can see is
// written: a fork discarded unsealed — a batch that failed validation —
// leaves no trace.

// Delta is what one batch changed between a graph and the fork sealed from
// it — the input of every derived structure above the graph (statistics
// domain, matcher and collector caches).
type Delta struct {
	// FirstVertex and FirstEdge are the predecessor's NumVertices and
	// NumEdges: ids at and above them were added by the batch.
	FirstVertex VertexID
	FirstEdge   EdgeID
	// RemovedVertices are the vertices the batch tombstoned, in removal order,
	// and RemovedAttrs[i] what RemovedVertices[i] carried, decoded from the
	// predecessor's columns; RemovedEdges, cascades included, and
	// RemovedEdgeAttrs likewise. An element the same batch added has nil.
	RemovedVertices  []VertexID
	RemovedAttrs     []Attrs
	RemovedEdges     []EdgeID
	RemovedEdgeAttrs []Attrs
	// EdgeTypes is the type of every edge the batch added or removed;
	// Vertices says whether it added or removed any vertex.
	EdgeTypes map[string]struct{}
	Vertices  bool
}

// Fork freezes g and returns a Clone of it to apply one batch to, for Seal.
// g must not be mutated while the fork is open.
func (g *Graph) Fork() *Graph {
	g.Freeze()
	c := g.Clone()
	c.base = g
	return c
}

// Seal closes the batch applied to a Fork: it installs the frozen CSR, the
// attribute columns and the posting lists (over the predecessor's
// IndexedKeys), all derived from the predecessor's, and returns what the
// batch changed. Afterwards g is an ordinary frozen graph.
// Seal panics on a graph that is not an open fork.
func (g *Graph) Seal() *Delta {
	base := g.base
	if base == nil {
		panic("graph: Seal on a graph that is not an open Fork")
	}
	g.base = nil
	prev := base.snapshot()
	d := &Delta{
		FirstVertex:      VertexID(len(base.out)),
		FirstEdge:        EdgeID(len(base.edges)),
		RemovedVertices:  g.goneV,
		RemovedAttrs:     decodeAll(prev.attrs.v, g.goneV, VertexID(len(base.out))),
		RemovedEdges:     g.goneE,
		RemovedEdgeAttrs: decodeAll(prev.attrs.e, g.goneE, EdgeID(len(base.edges))),
		EdgeTypes:        make(map[string]struct{}),
		Vertices:         len(g.goneV) > 0 || len(g.out) > len(base.out),
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

	c := g.spliceCSR(prev, touched)
	c.attrs = g.encode()
	// Posting lists to sort again: of the keys a removed vertex had, or an
	// added one has.
	resort := make(map[string]bool)
	for _, attrs := range d.RemovedAttrs {
		for k := range attrs {
			resort[k] = true
		}
	}
	for k, col := range c.attrs.v {
		resort[k] = resort[k] || slices.ContainsFunc(col.Codes[d.FirstVertex:], func(code uint32) bool { return code != 0 })
	}
	c.post = g.postings(c.attrs, prev.post, resort)
	g.frozen.Store(c)
	return d
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
	nv, prevNV := len(g.out), len(off)-1
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
