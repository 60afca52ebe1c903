// Package stats implements the query-dependent statistics of §5.2: exact
// cardinalities for single query vertices and edges (§5.2.2), Path(n)
// statistics along query edges (§5.2.3), whole-query cardinality estimates,
// and the induced-cardinality-change estimation that drives the
// query-candidate selector of §5.3. The statistics keep no cache of their
// own: a vertex cardinality is the size of the matcher's shared candidate
// set, and a Path(n) statistic is an exact count in the matcher's
// executed-count cache, under the canonical key of the fragment it describes
// — the thesis' re-use of already processed queries (§1.1, contribution 4).
// For a query whose canonical key the caller holds — every search candidate
// — the fragment keys are cut out of that key (Estimates), not encoded again.
package stats

import (
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
)

// Collector computes query-dependent statistics over one data graph. It is
// a stateless view over the matcher, whose candidate and executed-count
// caches hold every statistic, and safe for concurrent use: Path(n) counts
// run on matching contexts drawn from a free list and under keys built in
// pooled buffers, so concurrent collectors stay allocation-free.
type Collector struct {
	m    *match.Matcher
	ctxs cache.FreeList[*match.Ctx]
}

// keyBufs holds *[]byte scratch for building cache keys without garbage. The
// buffers belong to no graph, so the pool is shared by all collectors; a
// sync.Pool inside a Collector would pin its epoch (see cache.FreeList).
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// getKeyBuf returns an empty key scratch buffer; put it back with putKeyBuf.
func (c *Collector) getKeyBuf() *[]byte {
	kb := keyBufs.Get().(*[]byte)
	*kb = (*kb)[:0]
	return kb
}

func (c *Collector) putKeyBuf(kb *[]byte) { keyBufs.Put(kb) }

// New returns a collector over the matcher's data graph.
func New(m *match.Matcher) *Collector {
	c := &Collector{m: m}
	c.ctxs.New = m.NewContext
	return c
}

// VertexCardinality returns the exact number of data vertices matching the
// query vertex (querying statistics for vertices, §5.2.2): the size of its
// candidate set in the matcher's candidate cache, keyed by the vertex's
// id-free predicate encoding, so equal predicate sets share one entry
// regardless of vertex identifiers.
func (c *Collector) VertexCardinality(v *query.Vertex) int {
	return c.m.CandidateCount(v)
}

// EdgeCardinality returns the exact number of data edges matching the query
// edge's type disjunction and predicates, ignoring endpoint constraints
// (querying statistics for edges, §5.2.2).
func (c *Collector) EdgeCardinality(e *query.Edge) int {
	return c.m.EdgeCandidateCount(e)
}

// Path1Cardinality returns the exact number of data paths matching a single
// query edge together with both endpoint vertices' predicates — the Path(1)
// statistic of §5.2.3.
func (c *Collector) Path1Cardinality(q *query.Query, edgeID int) int {
	return c.PathCardinality(q, []int{edgeID})
}

// PathCardinality returns the exact number of data paths matching the given
// chain of query edges including endpoint predicates — Path(n), §5.2.3.
// The count key is derived from q in place (query.AppendKeyByEdges).
func (c *Collector) PathCardinality(q *query.Query, chain []int) int {
	if len(chain) == 0 {
		return 0
	}
	kb := c.getKeyBuf()
	defer c.putKeyBuf(kb)
	*kb = q.AppendKeyByEdges(*kb, chain)
	ctx := c.ctxs.Get()
	defer c.ctxs.Put(ctx)
	return c.pathCount(ctx, q, chain, *kb)
}

// pathCount resolves a path statistic under its fragment key: one exact
// (cap 0) lookup in the matcher's count cache. The subquery itself is built
// only by a probe that misses, which counts it on ctx with the key passed
// straight through to the matcher's plan cache, so repeated probes of the
// same fragment never recompile it.
func (c *Collector) pathCount(ctx *match.Ctx, q *query.Query, chain []int, key []byte) int {
	return match.CountKeyed(c.m, ctx, key, 0, func() *query.Query { return q.SubqueryByEdges(chain) })
}

// AveragePath1Cardinality is the mean Path(1) cardinality over all query
// edges — the priority signal of §5.5.3. A query without edges falls back to
// its mean vertex cardinality.
func (c *Collector) AveragePath1Cardinality(q *query.Query) float64 {
	_, avg := c.Estimates(q, "")
	return avg
}

// EstimateCardinality estimates C(Q) without executing the full query,
// combining exact Path(1) statistics over a spanning tree of each weakly
// connected component with independence-assumption selectivities for the
// remaining (cycle-closing) edges — the §5.2.3 estimation strategy for
// Paths(n) composed from Path(1) building blocks.
func (c *Collector) EstimateCardinality(q *query.Query) float64 {
	est, _ := c.Estimates(q, "")
	return est
}

// estScratch is the stack capacity of Estimates' per-element arrays; larger
// queries spill to the heap.
const estScratch = 16

// Estimates returns EstimateCardinality and AveragePath1Cardinality of q from
// one pass over its edges, each Path(1) looked up once. key is q's canonical
// key when the caller holds it ("" derives it here): every Path(1) key is cut
// out of it — two endpoint records and an edge record — instead of being
// encoded again from the predicate maps. Components multiply in order of
// their smallest vertex id, edges and vertices in id order within each.
func (c *Collector) Estimates(q *query.Query, key string) (estimate, avgPath1 float64) {
	vs, es := q.Vertices(), q.Edges()
	kb := c.getKeyBuf()
	defer c.putKeyBuf(kb)
	var ostack [4*estScratch + 1]int
	offs, ok := query.AppendRecordOffsets(ostack[:0], key)
	if *kb = append(*kb, key...); !ok || len(offs) != 2*(len(vs)+len(es))+1 {
		*kb = q.AppendKey((*kb)[:0])
		offs, _ = query.AppendRecordOffsets(offs[:0], *kb)
	}
	// Fragment keys are built behind the key, in the same buffer.
	*kb = slices.Grow(*kb, len(*kb))
	qkey, frag := *kb, (*kb)[len(*kb):]
	ctx := c.ctxs.Get()
	defer c.ctxs.Put(ctx)
	vcard := func(i int) float64 { return float64(c.m.CandidateCount(vs[i])) }

	// Per vertex position: union-find parent, spanning-tree degree, then the
	// running estimate of the component the position represents (dead: 0).
	var istack [2 * estScratch]int
	var fstack [2 * estScratch]float64
	ints := slices.Grow(istack[:0], 2*len(vs))[:2*len(vs)]
	floats := slices.Grow(fstack[:0], len(vs)+len(es))[:len(vs)+len(es)]
	parent, treeDeg := ints[:len(vs)], ints[len(vs):]
	est, factor := floats[:len(vs)], floats[len(vs):]
	for i := range parent {
		parent[i], treeDeg[i], est[i] = i, 0, -1 // -1: no edge seen yet
	}
	// First pass: every Path(1) once, and each edge's factor — its Path(1) as
	// a spanning-tree edge (it joins two partial results), its selectivity as
	// a cycle-closing one (-1: an endpoint has no candidates).
	var sum float64
	for j, e := range es {
		fi, ti := q.VertexIndex(e.From), q.VertexIndex(e.To)
		chain := [1]int{e.ID}
		p1 := float64(c.pathCount(ctx, q, chain[:], q.AppendKeyRecordsByEdges(frag, qkey, offs, chain[:])))
		sum += p1
		if a, b := query.FindRoot(parent, fi), query.FindRoot(parent, ti); a != b {
			parent[a] = b
			factor[j] = p1
			treeDeg[fi]++
			treeDeg[ti]++
		} else if cf, ct := vcard(fi), vcard(ti); cf == 0 || ct == 0 {
			factor[j] = -1
		} else {
			factor[j] = p1 / (cf * ct)
		}
	}
	// Second pass, components now final: multiply each one's factors in edge
	// order, then normalize shared tree vertices — a vertex joining k tree
	// edges was counted k times; divide by cand(v)^(k-1).
	for j, e := range es {
		r := query.FindRoot(parent, q.VertexIndex(e.From))
		switch {
		case factor[j] < 0 || est[r] == 0:
			est[r] = 0
		case est[r] < 0:
			est[r] = factor[j]
		default:
			est[r] *= factor[j]
		}
	}
	for i := range vs {
		if k := treeDeg[i]; k > 1 {
			r := query.FindRoot(parent, i)
			if cv := vcard(i); cv == 0 {
				est[r] = 0
			} else if est[r] != 0 {
				est[r] /= math.Pow(cv, float64(k-1))
			}
		}
	}
	// Components multiply in order of their smallest vertex; treeDeg, spent,
	// marks the ones already in. A zero product stays zero.
	estimate = 1
	for i := range vs {
		r := query.FindRoot(parent, i)
		if treeDeg[r] < 0 || estimate == 0 && len(es) > 0 {
			continue
		}
		treeDeg[r] = -1
		if est[r] < 0 { // isolated vertex component
			if est[r] = vcard(i); len(es) == 0 {
				sum += est[r]
			}
		}
		if estimate != 0 {
			estimate *= est[r]
		}
	}
	switch {
	case len(es) > 0:
		avgPath1 = sum / float64(len(es))
	case len(vs) > 0:
		avgPath1 = sum / float64(len(vs))
	}
	return estimate, avgPath1
}

// InducedRatio is the relative cardinality change an operation induces
// (§5.3.2, calculation of induced cardinality changes): the ratio of the
// estimated cardinality after the change to the estimate before it. Ratios
// above 1 mean the change relaxes the query; from an empty estimate to a
// positive one the ratio is +Inf.
func InducedRatio(before, after float64) float64 {
	if before <= 0 {
		if after > 0 {
			return math.Inf(1)
		}
		return 1
	}
	return after / before
}

// Domain catalogs the attribute values and edge types present in a data
// graph. The fine-grained modification of Chapter 6 and the random
// explanation generator of §3.2.5 draw replacement values from it.
type Domain struct {
	// VertexValues lists, per vertex attribute, the distinct values ordered
	// by descending frequency (most common first), capped at the collection
	// limit.
	VertexValues map[string][]graph.Value
	// VertexValuesByType refines VertexValues per entity kind (the value of
	// the "type" attribute): kind → attribute → values. Modification
	// enumeration uses it to avoid proposing attributes foreign to an
	// entity kind (a person has no population).
	VertexValuesByType map[string]map[string][]graph.Value
	// EdgeValues lists, per edge attribute, the distinct values ordered by
	// descending frequency.
	EdgeValues map[string][]graph.Value
	// EdgeTypes lists the edge types ordered by descending frequency.
	EdgeTypes []string

	// The frequency tables the catalogs above are ranked from. BuildDomain
	// drops them — a dataset nobody writes to should not pay for them — so
	// they are nil until the first Derive, which builds them with one scan;
	// from then on each Derive moves only the cells its batch touches. A
	// cell that falls to zero is deleted, and so is a table that empties:
	// derived tables equal built ones.
	topK      int
	vfreq     freqTable            // attribute → value → vertices
	typedFreq map[string]freqTable // entity kind → attribute → value → vertices
	efreq     freqTable            // attribute → value → live edges
	tfreq     map[string]int       // edge type → live edges
}

// freqTable counts, per attribute, how many elements carry each value.
type freqTable = map[string]map[graph.Value]int

// VertexAttrValues returns the value catalog for an attribute, restricted
// to the given entity kind when a per-kind catalog exists (kind "" or an
// unknown kind falls back to the global catalog).
func (d *Domain) VertexAttrValues(kind, attr string) []graph.Value {
	if kind != "" {
		if byAttr, ok := d.VertexValuesByType[kind]; ok {
			return byAttr[attr]
		}
	}
	return d.VertexValues[attr]
}

// VertexAttrs returns the attribute names available for an entity kind
// (all attributes when kind is "" or unknown), sorted.
func (d *Domain) VertexAttrs(kind string) []string {
	src := d.VertexValues
	if kind != "" {
		if byAttr, ok := d.VertexValuesByType[kind]; ok {
			src = byAttr
		}
	}
	attrs := make([]string, 0, len(src))
	for a := range src {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return attrs
}

// kindOf is a vertex's entity kind: its string-valued "type" attribute.
func kindOf(attrs graph.Attrs) string {
	if tv, ok := attrs["type"]; ok && tv.Kind == graph.KindString {
		return tv.Str
	}
	return ""
}

// BuildDomain scans the data graph and collects per-attribute value
// catalogs, keeping at most topK values per attribute (0 = unlimited).
// Tombstoned elements do not count: a removed vertex or edge has no
// attributes left, and removed edges have no type in the type index.
func BuildDomain(g *graph.Graph, topK int) *Domain {
	d := buildDomain(g, topK)
	d.vfreq, d.typedFreq, d.efreq, d.tfreq = nil, nil, nil, nil
	return d
}

// buildDomain is BuildDomain with the frequency tables left in place. The
// tables are integer passes over the graph's attribute columns — per column,
// and per entity kind over the vertices of that kind — not a walk over every
// attribute map.
func buildDomain(g *graph.Graph, topK int) *Domain {
	d := &Domain{
		VertexValues:       make(map[string][]graph.Value),
		VertexValuesByType: make(map[string]map[string][]graph.Value),
		EdgeValues:         make(map[string][]graph.Value),
		topK:               topK,
		vfreq:              make(freqTable),
		typedFreq:          make(map[string]freqTable),
		efreq:              make(freqTable),
		tfreq:              g.Summary().EdgeTypes,
	}
	vcols := g.VertexColumns()
	// The edge half — its own tables and catalogs — is scanned beside the
	// vertex half: the domain is on the critical path of a dataset load.
	edges := make(chan struct{})
	go func() {
		defer close(edges)
		d.EdgeTypes = rankTypes(d.tfreq)
		rankColumns(g.EdgeColumns(), nil, topK, d.efreq, d.EdgeValues)
	}()
	rankColumns(vcols, nil, topK, d.vfreq, d.VertexValues)
	// Entity kinds: the vertices grouped by the code of their "type" value.
	if tc := vcols["type"]; tc != nil {
		groups := make([][]int32, len(tc.Vals))
		for id, c := range tc.Codes {
			groups[c] = append(groups[c], int32(id))
		}
		for c := 1; c < len(groups); c++ {
			if kind := tc.Vals[c]; kind.Kind == graph.KindString && kind.Str != "" && len(groups[c]) > 0 {
				freq, ranks := make(freqTable), make(map[string][]graph.Value)
				rankColumns(vcols, groups[c], topK, freq, ranks)
				d.typedFreq[kind.Str], d.VertexValuesByType[kind.Str] = freq, ranks
			}
		}
	}
	<-edges
	return d
}

// rankColumns fills freq and ranks with the frequency table and the catalog of
// every column, counted over the elements ids (nil: all of them). A column none
// of them has a value in gets no entry.
func rankColumns(cols map[string]*graph.Column, ids []int32, topK int, freq freqTable, ranks map[string][]graph.Value) {
	var cnt []int      // per code, all zero between columns
	var group []uint32 // the codes of ids
	for k, col := range cols {
		if len(cnt) < len(col.Vals) {
			cnt = make([]int, len(col.Vals))
		}
		codes := col.Codes
		if ids != nil {
			group = group[:0]
			for _, id := range ids {
				group = append(group, col.Codes[id])
			}
			codes = group
		}
		for _, c := range codes {
			cnt[c]++
		}
		// Emitted and reset along the elements, not along the dictionary: the
		// cost follows the group, however many values other kinds hold.
		fm := make(map[graph.Value]int)
		for _, c := range codes {
			if c != 0 && cnt[c] > 0 {
				fm[col.Vals[c]] = cnt[c]
			}
			cnt[c] = 0
		}
		if len(fm) > 0 {
			freq[k], ranks[k] = fm, topValues(fm, topK)
		}
	}
}

// cowTable updates one frequency table and the catalog ranked from it while
// both still share their per-attribute entries with a predecessor domain:
// the first bump of an attribute copies that attribute's value map, and rank
// re-ranks exactly the attributes that were bumped.
type cowTable struct {
	freq  freqTable
	ranks map[string][]graph.Value
	own   map[string]struct{} // attributes whose value map is already a copy
}

// newCowTable starts an update on shallow copies of a predecessor's table and
// catalog (nil for a table the predecessor did not have).
func newCowTable(freq freqTable, ranks map[string][]graph.Value) *cowTable {
	t := &cowTable{freq: maps.Clone(freq), ranks: maps.Clone(ranks), own: make(map[string]struct{})}
	if t.freq == nil {
		t.freq, t.ranks = make(freqTable), make(map[string][]graph.Value)
	}
	return t
}

func (t *cowTable) bump(attr string, v graph.Value, n int) {
	m := t.freq[attr]
	if _, ok := t.own[attr]; !ok {
		if m = maps.Clone(m); m == nil {
			m = make(map[graph.Value]int)
		}
		t.freq[attr] = m
		t.own[attr] = struct{}{}
	}
	if m[v] += n; m[v] == 0 {
		delete(m, v)
	}
}

func (t *cowTable) rank(topK int) {
	for attr := range t.own {
		if m := t.freq[attr]; len(m) == 0 {
			delete(t.freq, attr)
			delete(t.ranks, attr)
		} else {
			t.ranks[attr] = topValues(m, topK)
		}
	}
}

// Derive returns the domain of g, a sealed fork of the graph d catalogs, from
// d and what the batch changed: the frequency cells of the touched vertices'
// and edges' values move by one, and only the attributes (and, if any edge
// was touched, the edge types) those cells belong to are ranked again. The
// catalogs equal BuildDomain(g, topK)'s. d is not written — untouched
// attributes share their tables and catalogs with it, touched ones are
// copied first — so d stays valid for the engine still serving from it. A
// domain straight from BuildDomain has no tables to move: its first
// successor is built by one scan of g, and keeps them.
func (d *Domain) Derive(g *graph.Graph, delta *graph.Delta) *Domain {
	if d.vfreq == nil {
		return buildDomain(g, d.topK)
	}
	nd := &Domain{
		VertexValuesByType: maps.Clone(d.VertexValuesByType),
		EdgeValues:         d.EdgeValues,
		EdgeTypes:          d.EdgeTypes,
		topK:               d.topK,
		typedFreq:          maps.Clone(d.typedFreq),
		efreq:              d.efreq,
		tfreq:              d.tfreq,
	}
	all := newCowTable(d.vfreq, d.VertexValues)
	kinds := make(map[string]*cowTable)
	vertex := func(attrs graph.Attrs, n int) {
		var typed *cowTable
		if kind := kindOf(attrs); kind != "" {
			if typed = kinds[kind]; typed == nil {
				typed = newCowTable(d.typedFreq[kind], d.VertexValuesByType[kind])
				kinds[kind] = typed
			}
		}
		for k, v := range attrs {
			all.bump(k, v, n)
			if typed != nil {
				typed.bump(k, v, n)
			}
		}
	}
	for i, id := range delta.RemovedVertices {
		if id < delta.FirstVertex {
			vertex(delta.RemovedAttrs[i], -1)
		}
	}
	for id := int(delta.FirstVertex); id < g.NumVertices(); id++ {
		vertex(g.VertexAttrs(graph.VertexID(id)), +1) // nil if removed again
	}
	all.rank(d.topK)
	nd.vfreq, nd.VertexValues = all.freq, all.ranks
	for kind, typed := range kinds {
		if typed.rank(d.topK); len(typed.freq) == 0 {
			delete(nd.typedFreq, kind)
			delete(nd.VertexValuesByType, kind)
		} else {
			nd.typedFreq[kind], nd.VertexValuesByType[kind] = typed.freq, typed.ranks
		}
	}
	if len(delta.EdgeTypes) == 0 {
		return nd
	}
	nd.tfreq = maps.Clone(d.tfreq)
	edges := newCowTable(d.efreq, d.EdgeValues)
	edge := func(id graph.EdgeID, attrs graph.Attrs, n int) {
		typ := g.Edge(id).Type
		if nd.tfreq[typ] += n; nd.tfreq[typ] == 0 {
			delete(nd.tfreq, typ)
		}
		for k, v := range attrs {
			edges.bump(k, v, n)
		}
	}
	for i, id := range delta.RemovedEdges {
		if id < delta.FirstEdge {
			edge(id, delta.RemovedEdgeAttrs[i], -1)
		}
	}
	for id := int(delta.FirstEdge); id < g.NumEdges(); id++ {
		if !g.EdgeRemoved(graph.EdgeID(id)) {
			edge(graph.EdgeID(id), g.EdgeAttrs(graph.EdgeID(id)), +1)
		}
	}
	edges.rank(d.topK)
	nd.efreq, nd.EdgeValues = edges.freq, edges.ranks
	nd.EdgeTypes = rankTypes(nd.tfreq)
	return nd
}

// rankTypes orders edge types by descending frequency, then by name.
func rankTypes(tfreq map[string]int) []string {
	var types []string
	for t := range tfreq {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if ni, nj := tfreq[types[i]], tfreq[types[j]]; ni != nj {
			return ni > nj
		}
		return types[i] < types[j]
	})
	return types
}

// topValues ranks the values of one frequency map by descending frequency,
// then by value, and keeps the first topK (0 = all). With a bound it is one
// pass over the map holding the best topK seen so far, not a sort of every
// distinct value: re-ranking a touched attribute costs a scan, not
// n log n comparisons.
func topValues(freq map[graph.Value]int, topK int) []graph.Value {
	type vf struct {
		v graph.Value
		n int
	}
	before := func(a, b vf) bool {
		if a.n != b.n {
			return a.n > b.n
		}
		return a.v.Less(b.v)
	}
	keep := len(freq)
	if topK > 0 && topK < keep {
		keep = topK
	}
	top := make([]vf, 0, keep+1)
	for v, n := range freq {
		x := vf{v, n}
		if len(top) == keep && !before(x, top[keep-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return before(x, top[i]) })
		top = append(top, vf{})
		copy(top[i+1:], top[i:])
		top[i] = x
		top = top[:min(len(top), keep)]
	}
	out := make([]graph.Value, len(top))
	for i, x := range top {
		out[i] = x.v
	}
	return out
}
