// Package graph implements the property-graph data model of the thesis
// (Definition 1, §3.1.1): a directed multigraph G = (V, E, u, f, g, AV, AE)
// whose vertices and edges carry multiple diverse attribute values, and whose
// edges carry a type. The package provides an in-memory store with adjacency
// and attribute indexes.
//
// The store plays the role of the GRAPHITE/SAP HANA graph runtime used by the
// thesis' evaluation — a columnar one: a substrate the pattern matcher
// (internal/match) and the statistics collector (internal/stats) scan and
// traverse. Its frozen layer (Freeze, Assemble, Seal) is what they read: packed
// adjacency and one dictionary-encoded column per attribute key (columns.go),
// the only place an attribute is kept.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// VertexID identifies a vertex; IDs are dense, starting at 0.
type VertexID int32

// EdgeID identifies an edge; IDs are dense, starting at 0.
type EdgeID int32

// NoVertex is the invalid vertex sentinel.
const NoVertex VertexID = -1

// NoEdge is the invalid edge sentinel.
const NoEdge EdgeID = -1

// Edge is a directed data edge with a type (a special attribute in the
// property-graph model, see Eq. 3.7); EdgeAttrs decodes its attributes.
type Edge struct {
	ID   EdgeID
	From VertexID
	To   VertexID
	Type string
}

// Adj is one packed adjacency entry: the incident edge, the far endpoint,
// and the edge's dense type id. Traversals read the far vertex and the type
// without chasing the Edge record, keeping the hot loop on one cache line.
type Adj struct {
	Edge   EdgeID
	Vertex VertexID // far endpoint of the edge as seen from the list owner
	Type   int32    // dense edge-type id (see TypeID)
}

// Graph is an in-memory property graph. The zero value is an empty graph
// ready for use. Graph is not safe for concurrent mutation; concurrent
// readers are safe once construction finished (call Freeze after the last
// mutation if readers use the packed adjacency accessors concurrently).
type Graph struct {
	edges []Edge
	out   [][]EdgeID // outgoing edge ids per vertex; one entry per vertex
	in    [][]EdgeID // incoming edge ids per vertex

	// typeIndex maps an edge type to all edges of that type.
	typeIndex map[string][]EdgeID
	// indexed lists the vertex attribute keys BuildVertexIndex was given.
	indexed []string

	// attrs is the last encoding (columns.go); pendV/pendE hold the maps of
	// the elements added since, goneV/goneE the removals since, in order.
	attrs        *store
	pendV, pendE []Attrs
	goneV        []VertexID
	goneE        []EdgeID

	// Tombstones. IDs are dense and never reused, so removal marks the slot
	// instead of compacting: removed vertices and edges keep their ID with no
	// attributes, removed edges keep their record but leave every adjacency
	// list and the type index. Both slices are nil until the first removal,
	// so purely additive graphs pay nothing.
	removedV  []bool
	removedE  []bool
	nRemovedV int
	nRemovedE int

	// Packed adjacency (CSR layout), built by Freeze and invalidated by
	// mutation. The whole snapshot lives behind one atomic pointer so its
	// publication is a plain acquire/release pair: Freeze builds a csr that
	// is never written again and Stores it; readers Load the pointer and,
	// per the Go memory model, a Load observing that Store happens-after
	// every write that built the snapshot. Mutations Store(nil), so readers
	// racing a mutation see either the old complete snapshot or none — never
	// a half-built one. freezeMu only serializes concurrent builders.
	frozen   atomic.Pointer[csr]
	freezeMu sync.Mutex

	base *Graph // the graph an open Fork was taken from (derive.go)
}

// csr is one immutable frozen snapshot: per-vertex half-edge lists
// (outAdj[outOff[v]:outOff[v+1]] are v's outgoing half-edges), the dense
// edge-type numbering, the attribute columns and the posting lists of the
// indexed vertex keys. A csr is read-only after construction and shared by
// every concurrent reader of the graph.
type csr struct {
	outAdj    []Adj
	inAdj     []Adj
	outOff    []int32
	inOff     []int32
	typeNames []string         // dense type id → name, sorted
	typeIDs   map[string]int32 // name → dense type id
	attrs     *store
	post      map[string]*postings // indexed key → posting lists, nil without a column
}

// New returns an empty graph with capacity hints for vertices and edges.
func New(vcap, ecap int) *Graph {
	return &Graph{
		edges:     make([]Edge, 0, ecap),
		out:       make([][]EdgeID, 0, vcap),
		in:        make([][]EdgeID, 0, vcap),
		typeIndex: make(map[string][]EdgeID),
	}
}

// AddVertex inserts a vertex with the given attributes and returns its id.
// The map is held until the next Freeze encodes it; callers must not mutate
// it afterwards.
func (g *Graph) AddVertex(attrs Attrs) VertexID {
	id := VertexID(len(g.out))
	g.pendV = append(g.pendV, attrs)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.removedV != nil {
		g.removedV = append(g.removedV, false)
	}
	g.frozen.Store(nil)
	return id
}

// AddEdge inserts a directed edge from → to of the given type and returns its
// id. Multiple edges between the same endpoints are allowed (multigraph).
// AddEdge panics if either endpoint does not exist, mirroring slice
// out-of-range semantics for programmer errors. attrs is held as AddVertex's.
func (g *Graph) AddEdge(from, to VertexID, typ string, attrs Attrs) EdgeID {
	if int(from) >= len(g.out) || int(to) >= len(g.out) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: AddEdge endpoints out of range: %d -> %d (have %d vertices)", from, to, len(g.out)))
	}
	if g.VertexRemoved(from) || g.VertexRemoved(to) {
		panic(fmt.Sprintf("graph: AddEdge endpoint removed: %d -> %d", from, to))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Type: typ})
	g.pendE = append(g.pendE, attrs)
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	if g.typeIndex == nil {
		g.typeIndex = make(map[string][]EdgeID)
	}
	g.typeIndex[typ] = append(g.typeIndex[typ], id)
	if g.removedE != nil {
		g.removedE = append(g.removedE, false)
	}
	g.frozen.Store(nil)
	return id
}

// Freeze builds the frozen layer: per-vertex CSR half-edge lists carrying
// (edge id, far vertex, dense type id) so traversals avoid the per-edge record
// lookup, the dense edge-type numbering, the attribute columns (encoding the
// maps added since) and the posting lists. Freeze is idempotent; any mutation
// invalidates it and the next Freeze (or packed accessor) rebuilds. Call it
// after construction when concurrent readers will use OutAdj/InAdj.
func (g *Graph) Freeze() {
	if g.frozen.Load() != nil {
		return
	}
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if g.frozen.Load() != nil {
		return
	}
	c := &csr{typeNames: g.EdgeTypes()}
	c.typeIDs = denseTypeIDs(c.typeNames)
	// The columns, an independent read of the graph, are encoded beside.
	cols := make(chan struct{})
	go func() {
		defer close(cols)
		c.attrs = g.encode()
		c.post = g.postings(c.attrs, nil, nil)
	}()
	// Each live edge's dense type id, resolved per type list instead of by
	// hashing the type string at both of the edge's half-edges.
	etype := make([]int32, len(g.edges))
	for i, t := range c.typeNames {
		for _, eid := range g.typeIndex[t] {
			etype[eid] = int32(i)
		}
	}
	nv, live := len(g.out), len(g.edges)-g.nRemovedE
	c.outOff = make([]int32, nv+1)
	c.inOff = make([]int32, nv+1)
	c.outAdj = make([]Adj, live)
	c.inAdj = make([]Adj, live)
	opos, ipos := int32(0), int32(0)
	for v := 0; v < nv; v++ {
		c.outOff[v] = opos
		for _, eid := range g.out[v] {
			c.outAdj[opos] = Adj{Edge: eid, Vertex: g.edges[eid].To, Type: etype[eid]}
			opos++
		}
		c.inOff[v] = ipos
		for _, eid := range g.in[v] {
			c.inAdj[ipos] = Adj{Edge: eid, Vertex: g.edges[eid].From, Type: etype[eid]}
			ipos++
		}
	}
	c.outOff[nv] = opos
	c.inOff[nv] = ipos
	<-cols
	g.frozen.Store(c)
}

// denseTypeIDs inverts a dense type table: name → index.
func denseTypeIDs(names []string) map[string]int32 {
	ids := make(map[string]int32, len(names))
	for i, t := range names {
		ids[t] = int32(i)
	}
	return ids
}

// snapshot returns the current packed-adjacency snapshot, building it when
// absent. The returned csr is immutable, so all accessor reads go through
// one atomic Load and inherit the happens-before edge of its publication.
func (g *Graph) snapshot() *csr {
	if c := g.frozen.Load(); c != nil {
		return c
	}
	g.Freeze()
	return g.frozen.Load()
}

// OutAdj returns the packed outgoing half-edges of v (far endpoint = edge
// target). The slice is shared; callers must not modify it.
func (g *Graph) OutAdj(v VertexID) []Adj {
	c := g.snapshot()
	return c.outAdj[c.outOff[v]:c.outOff[v+1]]
}

// InAdj returns the packed incoming half-edges of v (far endpoint = edge
// source). The slice is shared; callers must not modify it.
func (g *Graph) InAdj(v VertexID) []Adj {
	c := g.snapshot()
	return c.inAdj[c.inOff[v]:c.inOff[v+1]]
}

// TypeID returns the dense id of an edge type under the current Freeze,
// and whether the type occurs in the graph at all.
func (g *Graph) TypeID(typ string) (int32, bool) {
	id, ok := g.snapshot().typeIDs[typ]
	return id, ok
}

// TypeName returns the edge type name for a dense id.
func (g *Graph) TypeName(id int32) string {
	return g.snapshot().typeNames[id]
}

// NumEdgeTypes returns the number of distinct edge types.
func (g *Graph) NumEdgeTypes() int { return len(g.typeIndex) }

// TypeEdgeCount returns the number of edges of the given type — the
// per-type degree statistic the match planner uses to order expansions.
func (g *Graph) TypeEdgeCount(typ string) int { return len(g.typeIndex[typ]) }

// NumVertices returns the number of vertices (N_d in the thesis).
func (g *Graph) NumVertices() int { return len(g.out) }

// NumEdges returns the number of edges (M_d in the thesis).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// Out returns the outgoing edge ids of v. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Out(v VertexID) []EdgeID { return g.out[v] }

// In returns the incoming edge ids of v. The returned slice is shared;
// callers must not modify it.
func (g *Graph) In(v VertexID) []EdgeID { return g.in[v] }

// Degree returns the total degree (in + out) of v.
func (g *Graph) Degree(v VertexID) int { return len(g.out[v]) + len(g.in[v]) }

// EdgesByType returns all edge ids of the given type (shared slice).
func (g *Graph) EdgesByType(typ string) []EdgeID { return g.typeIndex[typ] }

// EdgeTypes returns the distinct edge types, sorted.
func (g *Graph) EdgeTypes() []string {
	types := make([]string, 0, len(g.typeIndex))
	for t := range g.typeIndex {
		types = append(types, t)
	}
	sort.Strings(types)
	return types
}

// BuildVertexIndex builds an equality index over the given vertex attribute
// keys, used by the matcher and the statistics collector to avoid full scans
// for highly selective predicates (for example the entity "type" attribute).
// Its posting lists are part of the frozen layer, which a new key invalidates.
func (g *Graph) BuildVertexIndex(keys ...string) {
	for _, k := range keys {
		if !slices.Contains(g.indexed, k) {
			g.indexed = append(g.indexed, k)
			g.frozen.Store(nil)
		}
	}
	slices.Sort(g.indexed)
}

// VerticesByAttr returns the vertices whose attribute key equals value, in
// ascending order (shared: read only), and whether an index over key exists.
// With no index it returns (nil, false) and callers fall back to a scan.
func (g *Graph) VerticesByAttr(key string, value Value) ([]VertexID, bool) {
	if !slices.Contains(g.indexed, key) {
		return nil, false
	}
	c := g.snapshot()
	p := c.post[key]
	if p == nil {
		return nil, true
	}
	code := c.attrs.v[key].Code(value)
	return p.ids[p.off[code]:p.off[code+1]], true
}

// IndexedKeys reports the vertex attribute keys covered by an index, sorted.
func (g *Graph) IndexedKeys() []string { return slices.Clone(g.indexed) }

// Stats summarises the graph for reports and generators.
type Stats struct {
	Vertices  int
	Edges     int
	EdgeTypes map[string]int
}

// Summary computes the per-type edge counts.
func (g *Graph) Summary() Stats {
	s := Stats{Vertices: len(g.out), Edges: len(g.edges), EdgeTypes: make(map[string]int, len(g.typeIndex))}
	for t, ids := range g.typeIndex {
		s.EdgeTypes[t] = len(ids)
	}
	return s
}
