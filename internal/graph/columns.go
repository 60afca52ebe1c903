package graph

import (
	"maps"
	"slices"
	"sync/atomic"
)

// Attribute columns, the graph's only attribute store: one dictionary-encoded
// Column per vertex and per edge attribute key, scanned by the compiled matcher
// and the statistics domain, decoded by every other reader. The maps AddVertex
// and AddEdge take wait for the next Freeze, Seal or Assemble to encode them.

// Column is one attribute of the vertices, or of the edges, of a frozen graph.
// Everything reachable from it is shared and read-only.
type Column struct {
	// Codes[id] is the code of the value element id carries, 0 when it does
	// not carry the attribute. A tombstoned element is 0 in every column.
	Codes []uint32
	// Vals[code] is the value a code stands for; Vals[0] is unused. A derived
	// column may keep values no live element carries any more. Values that
	// are == share a code: a -0 encoded after a 0 decodes as 0.
	Vals  []Value
	index map[Value]uint32
}

// Code returns the code of v, 0 when no element ever carried it.
func (c *Column) Code(v Value) uint32 { return c.index[v] }

// VertexColumns returns the vertex attribute columns by key. A key no vertex
// carries has no column. The map is shared: read only.
func (g *Graph) VertexColumns() map[string]*Column { return g.snapshot().attrs.v }

// EdgeColumns returns the edge attribute columns by key, like VertexColumns.
func (g *Graph) EdgeColumns() map[string]*Column { return g.snapshot().attrs.e }

// VertexAttrs returns the attributes of vertex id decoded from the columns:
// nil when it carries none, and once it is removed. The map is the caller's.
func (g *Graph) VertexAttrs(id VertexID) Attrs { return g.snapshot().attrs.v.decode(int(id)) }

// EdgeAttrs returns the attributes of edge id like VertexAttrs.
func (g *Graph) EdgeAttrs(id EdgeID) Attrs { return g.snapshot().attrs.e.decode(int(id)) }

// columns is one element kind's column set.
type columns map[string]*Column

// decode returns the attributes element id has a code for, nil for none.
func (cols columns) decode(id int) Attrs {
	var a Attrs
	for k, c := range cols {
		if code := c.Codes[id]; code != 0 {
			if a == nil {
				a = make(Attrs)
			}
			a[k] = c.Vals[code]
		}
	}
	return a
}

// decodeAll decodes each of ids, nil for one at or above n (never encoded).
func decodeAll[ID ~int32](cols columns, ids []ID, n ID) []Attrs {
	out := make([]Attrs, len(ids))
	for i, id := range ids {
		if id < n {
			out[i] = cols.decode(int(id))
		}
	}
	return out
}

// store encodes the attributes of a graph's first nv vertices and ne edges. It
// is shared and read-only but for extended, which the first store derived from
// it sets to take the spare capacity behind the code arrays.
type store struct {
	v, e     columns
	nv, ne   int
	extended atomic.Bool
}

// encode, the one encoder behind Freeze, Seal and Assemble, derives the store
// of g's elements from g.attrs and the removals and maps since, and — but on
// an open Fork — installs it and drops those. It writes nothing a holder of
// the old store can read (deriveColumns).
func (g *Graph) encode() *store {
	s := g.attrs
	if s == nil {
		s = &store{}
	}
	nv, ne := len(g.out), len(g.edges)
	if s.nv != nv || s.ne != ne || len(g.goneV)+len(g.goneE) > 0 {
		inPlace := s.extended.CompareAndSwap(false, true)
		s = &store{
			v:  deriveColumns(s.v, inPlace, nv, g.pendV, g.removedV, g.goneV),
			e:  deriveColumns(s.e, inPlace, ne, g.pendE, g.removedE, g.goneE),
			nv: nv, ne: ne,
		}
	}
	if g.base == nil {
		g.attrs, g.pendV, g.pendE, g.goneV, g.goneE = s, nil, nil, nil, nil
	}
	return s
}

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

// deriveColumns returns the columns of n elements from prev, those of the
// first n-len(pend): gone are the codes of the removed elements prev holds,
// born the maps in pend of the elements after them, removed ones skipped.
// Nothing a reader of prev can reach is written. A column grows by appending:
// with inPlace — the first store derived from prev's — into the spare
// capacity behind prev's codes, beyond the length any reader holds; otherwise,
// and when the capacity is used up, the append copies. Clearing a gone
// element's code copies the columns it has a value in, and only those; a
// dictionary is copied when pend brings a value it does not hold.
func deriveColumns[ID ~int32](prev columns, inPlace bool, n int, pend []Attrs, removed []bool, gone []ID) columns {
	first := n - len(pend)
	cols := make(columns, len(prev))
	for k, pc := range prev {
		c := *pc
		if !inPlace {
			c.Codes = slices.Clip(c.Codes)
		}
		c.Codes = slices.Grow(c.Codes, n-first)[:n]
		clear(c.Codes[first:])
		cols[k] = &c
	}
	for _, id := range gone {
		for k, c := range cols {
			if int(id) >= first || c.Codes[id] == 0 {
				continue // added since, or no value here
			}
			if &c.Codes[0] == &prev[k].Codes[0] { // still prev's array
				c.Codes = slices.Clone(c.Codes)
			}
			c.Codes[id] = 0
		}
	}
	for i, attrs := range pend {
		if id := first + i; removed == nil || !removed[id] {
			cols.set(n, id, attrs, prev)
		}
	}
	return cols
}

// postings are the vertices carrying each value of an indexed column:
// ids[off[code]:off[code+1]], ascending.
type postings struct {
	off []int32
	ids []VertexID
}

// postings returns the posting lists of g's indexed keys over s. A key prev
// has lists for and resort does not name shares them — its codes and
// dictionary are prev's; any other is sorted by code afresh.
func (g *Graph) postings(s *store, prev map[string]*postings, resort map[string]bool) map[string]*postings {
	post := make(map[string]*postings, len(g.indexed))
	for _, k := range g.indexed {
		col := s.v[k]
		if p, ok := prev[k]; ok && !resort[k] {
			post[k] = p
		} else if col != nil {
			p := &postings{off: make([]int32, len(col.Vals)+1)}
			for _, code := range col.Codes {
				p.off[code+1]++
			}
			p.off[1] = 0 // code 0: carries no value
			for c := 1; c < len(p.off); c++ {
				p.off[c] += p.off[c-1]
			}
			p.ids = make([]VertexID, p.off[len(col.Vals)])
			next := slices.Clone(p.off)
			for id, code := range col.Codes {
				if code != 0 {
					p.ids[next[code]] = VertexID(id)
					next[code]++
				}
			}
			post[k] = p
		}
	}
	return post
}
