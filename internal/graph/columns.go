package graph

import (
	"maps"
	"slices"
)

// Attribute columns: the frozen layer holds every attribute twice — in the
// element records' maps, which the write path, the snapshot format and the
// reference matcher read, and as one dictionary-encoded Column per attribute
// key, which the compiled matcher and the statistics domain scan. Freeze and
// Assemble build the columns from the maps; Seal derives them from the
// predecessor's at the cost of its batch (deriveColumns).

// Column is one attribute of the vertices, or of the edges, of a frozen graph.
// Everything reachable from it is shared and read-only.
type Column struct {
	// Codes[id] is the code of the value element id carries, 0 when it does
	// not carry the attribute. A tombstoned element is 0 in every column.
	Codes []uint32
	// Vals[code] is the value a code stands for; Vals[0] is unused. A derived
	// column may keep values no live element carries any more.
	Vals  []Value
	index map[Value]uint32
}

// Code returns the code of v, 0 when no element ever carried it.
func (c *Column) Code(v Value) uint32 { return c.index[v] }

// VertexColumns returns the vertex attribute columns by key. A key no vertex
// carries has no column. The map is shared: read only.
func (g *Graph) VertexColumns() map[string]*Column { return g.snapshot().vcols }

// EdgeColumns returns the edge attribute columns by key, like VertexColumns.
func (g *Graph) EdgeColumns() map[string]*Column { return g.snapshot().ecols }

// columns is one element kind's column set while it is built or derived.
type columns map[string]*Column

// set encodes the attributes of element id of n. Columns and values come into
// being on first sight. A column still using the dictionary of its namesake
// in shared copies it before adding a value.
func (cols columns) set(n, id int, attrs Attrs, shared columns) {
	for k, v := range attrs {
		c := cols[k]
		if c == nil {
			c = &Column{Codes: make([]uint32, n), Vals: make([]Value, 1), index: make(map[Value]uint32)}
			cols[k] = c
		}
		code, ok := c.index[v]
		if !ok {
			if pc := shared[k]; pc != nil && &pc.Vals[0] == &c.Vals[0] {
				c.Vals, c.index = slices.Clip(c.Vals), maps.Clone(c.index)
			}
			code = uint32(len(c.Vals))
			c.Vals = append(c.Vals, v)
			c.index[v] = code
		}
		c.Codes[id] = code
	}
}

// buildColumns encodes the live elements' attribute maps from scratch.
func (g *Graph) buildColumns() (vcols, ecols columns) {
	vcols, ecols = make(columns), make(columns)
	for i := range g.vertices {
		vcols.set(len(g.vertices), i, g.vertices[i].Attrs, nil) // nil once removed
	}
	for i := range g.edges {
		if !g.EdgeRemoved(EdgeID(i)) {
			ecols.set(len(g.edges), i, g.edges[i].Attrs, nil)
		}
	}
	return vcols, ecols
}

// cell is one element a batch touched and the attributes to encode or clear.
type cell struct {
	id    int
	attrs Attrs
}

// deriveColumns returns the columns of a sealed fork with n elements from its
// predecessor's: gone are the predecessor's elements the batch tombstoned, with
// the attributes each carried, born the elements it added and kept. Nothing a
// reader of the predecessor can reach is written. A column grows by appending:
// with inPlace — the fork is the first sealed from its base — into the spare
// capacity behind the predecessor's codes, beyond the length any reader holds;
// otherwise, and when the capacity is used up, the append copies. Clearing a
// gone element's code copies the columns it has a value in, and only those; a
// dictionary is copied when the batch brings a value it does not hold.
func deriveColumns(prev columns, inPlace bool, n int, gone, born []cell) columns {
	cols := make(columns, len(prev))
	for k, pc := range prev {
		c := *pc
		if !inPlace {
			c.Codes = slices.Clip(c.Codes)
		}
		was := len(c.Codes)
		c.Codes = slices.Grow(c.Codes, n-was)[:n]
		clear(c.Codes[was:])
		cols[k] = &c
	}
	for _, x := range gone {
		for k := range x.attrs {
			c := cols[k]
			if &c.Codes[0] == &prev[k].Codes[0] { // still the predecessor's array
				c.Codes = slices.Clone(c.Codes)
			}
			c.Codes[x.id] = 0
		}
	}
	for _, x := range born {
		cols.set(n, x.id, x.attrs, prev)
	}
	return cols
}
