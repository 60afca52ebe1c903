// Package query implements the set-based graph-query model of §3.2.2
// (Fig. 3.3): a pattern-matching query is a property graph whose vertices and
// edges are themselves sets — predicate intervals, incoming/outgoing edge-id
// sets, type disjunctions, and direction sets. The representation supports
// the fine-grained modification operations of Table 3.1 and Figure 3.2 and
// the syntactic-distance computation of internal/metrics.
//
// Query vertices and edges carry numeric identifiers that stay stable across
// modifications, so explanations remain comparable with the original query
// (§3.2.2, "identifiers are uniquely defined in an original query"). A query
// holds its elements in identifier order (Vertices, Edges), the order of the
// records of its binary canonical key (key.go). Search candidates are derived
// copy-on-write (ApplyKeyed): they share every untouched element and every
// predicate value with their ancestors, so a query that was handed to
// ApplyKeyed, or came from it, is never written again.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Dir is a direction-set bitmask of a query edge. The thesis models the
// direction as a set with at most two values (forward, backward); a set with
// both values places no direction constraint (direction deletion, Tab. 3.1).
type Dir uint8

const (
	// Forward requires the data edge to run source → target.
	Forward Dir = 1 << iota
	// Backward requires the data edge to run target → source.
	Backward
	// Both places no direction constraint.
	Both = Forward | Backward
)

// Has reports whether d includes the given direction.
func (d Dir) Has(x Dir) bool { return d&x != 0 }

// Count returns the number of directions in the set (1 or 2).
func (d Dir) Count() int {
	n := 0
	if d.Has(Forward) {
		n++
	}
	if d.Has(Backward) {
		n++
	}
	return n
}

// String renders the direction set.
func (d Dir) String() string {
	switch d {
	case Forward:
		return "->"
	case Backward:
		return "<-"
	case Both:
		return "--"
	default:
		return "??"
	}
}

// Vertex is a query vertex: a set of predicate intervals (plus the derived
// IN/OUT edge-id sets kept in the owning Query, Eq. 3.3/3.4).
type Vertex struct {
	ID    int
	Preds map[string]Predicate
}

// Clone deep-copies the vertex.
func (v *Vertex) Clone() *Vertex {
	c := &Vertex{ID: v.ID, Preds: make(map[string]Predicate, len(v.Preds))}
	for k, p := range v.Preds {
		c.Preds[k] = p.Clone()
	}
	return c
}

// Edge is a query edge: type disjunction, source/target vertex ids,
// direction set, and predicate intervals (Eq. 3.5/3.6/3.7).
//
// Types is read-only for external callers: mutate it through the operations
// of Table 3.1 (DeleteType, AddType, RemoveType) or SetTypes, which keep the
// precomputed sorted type list — used by Canonical and the binary key
// encoder on every candidate dedup — in sync.
type Edge struct {
	ID    int
	From  int      // source query-vertex id
	To    int      // target query-vertex id
	Types []string // disjunction; empty means "any type" (type deleted)
	Dirs  Dir
	Preds map[string]Predicate

	// sorted caches Types in ascending order. It is precomputed on every
	// mutation so Canonical/AppendKey never re-sort (and never allocate) per
	// edge per call; typesSorted revalidates defensively against direct
	// Types writes that bypassed the mutators.
	sorted []string
}

// Clone deep-copies the edge.
func (e *Edge) Clone() *Edge {
	c := &Edge{ID: e.ID, From: e.From, To: e.To, Dirs: e.Dirs,
		Types:  append([]string(nil), e.Types...),
		sorted: append([]string(nil), e.sorted...),
		Preds:  make(map[string]Predicate, len(e.Preds))}
	for k, p := range e.Preds {
		c.Preds[k] = p.Clone()
	}
	return c
}

// SetTypes replaces the edge's type disjunction, refreshing the precomputed
// sorted list. nil (or empty) deletes the type constraint entirely.
func (e *Edge) SetTypes(types []string) {
	e.Types = append(e.Types[:0:0], types...)
	e.refreshSortedTypes()
}

// refreshSortedTypes recomputes the sorted type cache; every mutation of
// Types inside this package calls it.
func (e *Edge) refreshSortedTypes() {
	if len(e.Types) == 0 {
		e.sorted = nil
		return
	}
	e.sorted = append(e.sorted[:0], e.Types...)
	sort.Strings(e.sorted)
}

// typesSorted returns the type disjunction in ascending order without
// allocating on the precomputed path. If a caller mutated Types directly
// (bypassing the package's mutators), the multiset check fails and a fresh
// sorted copy is returned WITHOUT touching the cache: candidate queries
// share Edge structs copy-on-write (see ApplyKeyed) and are encoded by
// concurrent search workers, so the read path must never write.
func (e *Edge) typesSorted() []string {
	if sameMultiset(e.Types, e.sorted) {
		return e.sorted
	}
	c := append([]string(nil), e.Types...)
	sort.Strings(c)
	return c
}

// sameMultiset reports whether a and b hold the same strings with the same
// multiplicities. Type disjunctions are tiny, so the quadratic probe is
// cheaper than sorting and performs no allocations.
func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		ca, cb := 0, 0
		for _, y := range a {
			if y == x {
				ca++
			}
		}
		for _, y := range b {
			if y == x {
				cb++
			}
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// HasType reports whether the edge's type disjunction admits typ.
// An empty disjunction admits every type.
func (e *Edge) HasType(typ string) bool {
	if len(e.Types) == 0 {
		return true
	}
	for _, t := range e.Types {
		if t == typ {
			return true
		}
	}
	return false
}

// Query is a pattern-matching graph query G_q with N_q vertices and M_q
// edges, each kind held in ascending identifier order (identifiers only ever
// grow, so appending keeps the order and lookup by id is a binary search).
// The zero value is not usable; construct with New.
type Query struct {
	vertices []*Vertex
	edges    []*Edge
	nextVID  int
	nextEID  int
}

// New returns an empty query.
func New() *Query { return &Query{} }

// AddVertex appends a query vertex with the given predicate intervals and
// returns its identifier.
func (q *Query) AddVertex(preds map[string]Predicate) int {
	return q.AddVertexID(q.nextVID, preds)
}

// AddVertexID is AddVertex under a caller-chosen identifier, which must
// exceed every vertex identifier the query has held (it panics otherwise:
// programmer error). Skipped identifiers stay unused, as after deletions.
func (q *Query) AddVertexID(id int, preds map[string]Predicate) int {
	if id < q.nextVID {
		panic(fmt.Sprintf("query: AddVertexID: id %d below next id %d", id, q.nextVID))
	}
	q.nextVID = id + 1
	if preds == nil {
		preds = map[string]Predicate{}
	}
	q.vertices = append(q.vertices, &Vertex{ID: id, Preds: preds})
	return id
}

// AddEdge appends a forward query edge from → to with the given type
// disjunction and predicates and returns its identifier. It panics if either
// endpoint is missing (programmer error).
func (q *Query) AddEdge(from, to int, types []string, preds map[string]Predicate) int {
	return q.AddEdgeID(q.nextEID, from, to, types, preds)
}

// AddEdgeID is AddEdge under a caller-chosen identifier, ascending like
// AddVertexID's.
func (q *Query) AddEdgeID(id, from, to int, types []string, preds map[string]Predicate) int {
	for _, v := range [2]int{from, to} {
		if q.Vertex(v) == nil {
			panic(fmt.Sprintf("query: AddEdge: no vertex %d", v))
		}
	}
	if id < q.nextEID {
		panic(fmt.Sprintf("query: AddEdgeID: id %d below next id %d", id, q.nextEID))
	}
	q.nextEID = id + 1
	if preds == nil {
		preds = map[string]Predicate{}
	}
	e := &Edge{ID: id, From: from, To: to, Types: append([]string(nil), types...), Dirs: Forward, Preds: preds}
	e.refreshSortedTypes()
	q.edges = append(q.edges, e)
	return id
}

func (v *Vertex) elemID() int { return v.ID }
func (e *Edge) elemID() int   { return e.ID }

// indexOf returns the position of the element with the given id in an
// id-ordered element slice, or -1. Distinct ascending ids put an element at
// or before the index equal to its id, exactly there when no id was skipped.
func indexOf[E interface{ elemID() int }](xs []E, id int) int {
	if id >= 0 && id < len(xs) && xs[id].elemID() == id {
		return id
	}
	if i, ok := slices.BinarySearchFunc(xs, id, func(x E, id int) int { return x.elemID() - id }); ok {
		return i
	}
	return -1
}

// Vertices returns the query vertices in ascending identifier order. The
// slice is the query's own: read it, never write it.
func (q *Query) Vertices() []*Vertex { return q.vertices }

// Edges returns the query edges in ascending identifier order, read-only
// like Vertices.
func (q *Query) Edges() []*Edge { return q.edges }

// VertexIndex returns the position of vertex id in Vertices(), or -1.
func (q *Query) VertexIndex(id int) int { return indexOf(q.vertices, id) }

// Vertex returns the vertex with the given id, or nil.
func (q *Query) Vertex(id int) *Vertex {
	if i := indexOf(q.vertices, id); i >= 0 {
		return q.vertices[i]
	}
	return nil
}

// Edge returns the edge with the given id, or nil.
func (q *Query) Edge(id int) *Edge {
	if i := indexOf(q.edges, id); i >= 0 {
		return q.edges[i]
	}
	return nil
}

// NumVertices returns N_q.
func (q *Query) NumVertices() int { return len(q.vertices) }

// NumEdges returns M_q.
func (q *Query) NumEdges() int { return len(q.edges) }

func idsOf[E interface{ elemID() int }](xs []E) []int {
	ids := make([]int, len(xs))
	for i, x := range xs {
		ids[i] = x.elemID()
	}
	return ids
}

// VertexIDs returns the vertex identifiers in ascending order.
func (q *Query) VertexIDs() []int { return idsOf(q.vertices) }

// EdgeIDs returns the edge identifiers in ascending order.
func (q *Query) EdgeIDs() []int { return idsOf(q.edges) }

// incident collects the ids of the edges whose source (out) or target (in)
// is v, ascending.
func (q *Query) incident(v int, out, in bool) []int {
	var ids []int
	for _, e := range q.edges {
		if out && e.From == v || in && e.To == v {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// In returns the identifiers of edges whose target is v (the IN set of
// Eq. 3.4), ascending.
func (q *Query) In(v int) []int { return q.incident(v, false, true) }

// Out returns the identifiers of edges whose source is v (the OUT set of
// Eq. 3.4), ascending.
func (q *Query) Out(v int) []int { return q.incident(v, true, false) }

// Incident returns all edge ids touching v, ascending.
func (q *Query) Incident(v int) []int { return q.incident(v, true, true) }

// Degree returns the number of edges touching v, without building the list.
func (q *Query) Degree(v int) int {
	n := 0
	for _, e := range q.edges {
		if e.From == v || e.To == v {
			n++
		}
	}
	return n
}

// RemoveEdge deletes the edge with the given id. It reports whether the edge
// existed. Vertex set is unchanged (edge deletion, Tab. 3.1).
func (q *Query) RemoveEdge(id int) bool {
	i := indexOf(q.edges, id)
	if i < 0 {
		return false
	}
	q.edges = slices.Delete(q.edges, i, i+1)
	return true
}

// RemoveVertex deletes the vertex and all incident edges (vertex deletion,
// Tab. 3.1). It reports whether the vertex existed.
func (q *Query) RemoveVertex(id int) bool {
	i := indexOf(q.vertices, id)
	if i < 0 {
		return false
	}
	q.vertices = slices.Delete(q.vertices, i, i+1)
	q.edges = slices.DeleteFunc(q.edges, func(e *Edge) bool { return e.From == id || e.To == id })
	return true
}

// cloneShallow returns a child with element slices of its own that share the
// element structs with q — the copy-on-write substrate of ApplyKeyed. The
// caller must copy any element it intends to mutate.
func (q *Query) cloneShallow() *Query {
	c := *q
	c.vertices, c.edges = slices.Clone(q.vertices), slices.Clone(q.edges)
	return &c
}

// Clone returns a deep copy sharing no storage; identifiers are preserved.
func (q *Query) Clone() *Query {
	c := &Query{
		vertices: make([]*Vertex, len(q.vertices)),
		edges:    make([]*Edge, len(q.edges)),
		nextVID:  q.nextVID,
		nextEID:  q.nextEID,
	}
	for i, v := range q.vertices {
		c.vertices[i] = v.Clone()
	}
	for i, e := range q.edges {
		c.edges[i] = e.Clone()
	}
	return c
}

// ascending returns ids sorted and without repeats: ids itself when it
// already is, a sorted copy otherwise.
func ascending(ids []int) []int {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			ids = slices.Clone(ids)
			slices.Sort(ids)
			return slices.Compact(ids)
		}
	}
	return ids
}

// SubqueryByEdges returns the connected (or not) subquery induced by the
// given edge ids: those edges plus their endpoints, with identifiers
// preserved. Used by the MCS algorithms of Chapter 4.
func (q *Query) SubqueryByEdges(edgeIDs []int) *Query { return q.Subquery(edgeIDs, nil) }

// Subquery returns the subquery consisting of the given edges (with their
// endpoints) plus the given extra vertices, all with identifiers preserved.
// Unknown and repeated ids are ignored.
func (q *Query) Subquery(edgeIDs, extraVertices []int) *Query {
	c := &Query{edges: make([]*Edge, 0, len(edgeIDs)), nextVID: q.nextVID, nextEID: q.nextEID}
	vids := make([]int, 0, 2*len(edgeIDs)+len(extraVertices))
	for _, eid := range ascending(edgeIDs) {
		if e := q.Edge(eid); e != nil {
			c.edges = append(c.edges, e.Clone())
			vids = append(vids, e.From, e.To)
		}
	}
	vids = append(vids, extraVertices...)
	slices.Sort(vids)
	vids = slices.Compact(vids)
	c.vertices = make([]*Vertex, 0, len(vids))
	for _, vid := range vids {
		if v := q.Vertex(vid); v != nil {
			c.vertices = append(c.vertices, v.Clone())
		}
	}
	return c
}

// SubqueryByVertices returns the subquery induced by the given vertex ids:
// those vertices plus all edges whose both endpoints are included.
func (q *Query) SubqueryByVertices(vertexIDs []int) *Query {
	c := &Query{nextVID: q.nextVID, nextEID: q.nextEID}
	for _, vid := range ascending(vertexIDs) {
		if v := q.Vertex(vid); v != nil {
			c.vertices = append(c.vertices, v.Clone())
		}
	}
	for _, e := range q.edges {
		if c.Vertex(e.From) != nil && c.Vertex(e.To) != nil {
			c.edges = append(c.edges, e.Clone())
		}
	}
	return c
}

// componentRoots runs union-find over the edges and returns, per position in
// Vertices(), the position of its weakly connected component's
// representative. scratch is reused when it is large enough.
func (q *Query) componentRoots(scratch []int) []int {
	root := slices.Grow(scratch[:0], len(q.vertices))[:len(q.vertices)]
	for i := range root {
		root[i] = i
	}
	for _, e := range q.edges {
		a, b := FindRoot(root, q.VertexIndex(e.From)), FindRoot(root, q.VertexIndex(e.To))
		root[a] = b
	}
	for i := range root {
		root[i] = FindRoot(root, i)
	}
	return root
}

// FindRoot is union-find's find with path halving over a parent array.
func FindRoot(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// WeaklyConnectedComponents partitions the query's vertices into weakly
// connected components (§4.3.1). Isolated vertices form singleton components.
// Components are ordered by their smallest vertex id; members ascend.
func (q *Query) WeaklyConnectedComponents() [][]int {
	root := q.componentRoots(nil)
	comp := make([]int, len(root)) // representative position → component number + 1
	var comps [][]int
	for i, v := range q.vertices {
		r := root[i]
		if comp[r] == 0 {
			comps = append(comps, nil)
			comp[r] = len(comps)
		}
		comps[comp[r]-1] = append(comps[comp[r]-1], v.ID)
	}
	return comps
}

// IsConnected reports whether the query graph is weakly connected.
func (q *Query) IsConnected() bool {
	var stack [keyScratch]int
	root := q.componentRoots(stack[:0])
	for _, r := range root {
		if r != root[0] {
			return false
		}
	}
	return true
}

// Validate checks referential integrity: every edge endpoint must exist.
func (q *Query) Validate() error {
	for _, e := range q.edges {
		if q.Vertex(e.From) == nil {
			return fmt.Errorf("query: edge %d references missing source vertex %d", e.ID, e.From)
		}
		if q.Vertex(e.To) == nil {
			return fmt.Errorf("query: edge %d references missing target vertex %d", e.ID, e.To)
		}
	}
	return nil
}

// Canonical returns a deterministic textual form of the query, suitable as a
// cache key for the executed-query cache of Chapter 5 and for equality
// checks between rewritten candidates. It is on the hot path of every
// rewriting search (executed-query dedup, statistics cache keys), so it is
// built without fmt.
func (q *Query) Canonical() string {
	var b strings.Builder
	b.Grow(32 * (len(q.vertices) + len(q.edges)))
	for _, v := range q.vertices {
		b.WriteByte('v')
		b.WriteString(strconv.Itoa(v.ID))
		b.WriteByte('{')
		writePreds(&b, v.Preds)
		b.WriteString("}\x1e")
	}
	for _, e := range q.edges {
		b.WriteByte('e')
		b.WriteString(strconv.Itoa(e.ID))
		b.WriteByte('(')
		b.WriteString(strconv.Itoa(e.From))
		b.WriteString(e.Dirs.String())
		b.WriteString(strconv.Itoa(e.To))
		b.WriteString("):")
		for i, t := range e.typesSorted() {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(t)
		}
		b.WriteByte('{')
		writePreds(&b, e.Preds)
		b.WriteString("}\x1e")
	}
	return b.String()
}

// String renders the query for humans; identical to Canonical but with
// newlines between elements.
func (q *Query) String() string {
	return strings.TrimRight(strings.ReplaceAll(q.Canonical(), "\x1e", "\n"), "\n")
}

func writePreds(b *strings.Builder, preds map[string]Predicate) {
	if len(preds) == 0 {
		return
	}
	var buf [8]string
	keys := buf[:0]
	for k := range preds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		p := preds[k]
		p.writeTo(b)
	}
}

// Equal reports whether two queries are structurally identical (same
// identifiers, topology, types, directions, and predicates). It compares
// binary canonical keys, which is equivalent to comparing Canonical() texts.
func (q *Query) Equal(o *Query) bool {
	var a, b [128]byte
	return string(q.AppendKey(a[:0])) == string(o.AppendKey(b[:0]))
}
