package match

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/query"
)

// flatPred is one (attribute key, predicate) pair of a query element,
// flattened out of the predicate map in key order: the form predicates are
// bound from and carry-over tests.
type flatPred struct {
	key  string
	pred query.Predicate
}

// boundPred is a flattened predicate resolved against its attribute column
// (graph.Column): the column's codes by element id, and the values the
// predicate admits as a bitset over the column's dictionary. Bit 0, the code of
// an element that does not carry the attribute, is never set.
type boundPred struct {
	codes []uint32
	admit []uint64
}

// has reports whether element id carries a value the predicate admits: one
// array load and one bit test.
func (b *boundPred) has(id int32) bool {
	c := b.codes[id]
	return b.admit[c>>6]&(1<<(c&63)) != 0
}

// bindPreds resolves preds against cols, once per compiled edge or candidate-
// cache miss: a value disjunction is one dictionary lookup per value, a range
// one pass over the dictionary — which holds at most one entry per element, so
// binding never costs more than the scan it spares. Each admit bitset reuses
// the storage of the entry that dst's spare capacity holds at its index, so a
// plan recompiled in place binds without allocating. ok is false when some
// predicate admits no value of its column: nothing can match.
func bindPreds(dst []boundPred, cols map[string]*graph.Column, preds []flatPred) (bound []boundPred, ok bool) {
	for i := range preds {
		fp := &preds[i]
		col := cols[fp.key]
		if col == nil {
			return dst, false
		}
		var admit []uint64
		if n := len(dst); n < cap(dst) {
			admit = dst[:n+1][n].admit
		}
		words := (len(col.Vals) + 63) / 64
		admit = slices.Grow(admit[:0], words)[:words]
		clear(admit)
		if fp.pred.Kind == query.Range {
			for c := 1; c < len(col.Vals); c++ {
				if fp.pred.Matches(col.Vals[c]) {
					admit[c>>6] |= 1 << (c & 63)
				}
			}
		} else {
			for _, v := range fp.pred.Vals {
				c := col.Code(v) // 0: no element carries v
				admit[c>>6] |= 1 << (c & 63)
			}
			admit[0] &^= 1
		}
		if !slices.ContainsFunc(admit, func(w uint64) bool { return w != 0 }) {
			return dst, false
		}
		dst = append(dst, boundPred{codes: col.Codes, admit: admit})
	}
	return dst, true
}

// hasAll reports whether element id satisfies every bound predicate.
func hasAll(bound []boundPred, id int32) bool {
	for i := range bound {
		if !bound[i].has(id) {
			return false
		}
	}
	return true
}

type opKind uint8

const (
	// opStart binds a component start vertex (or an isolated vertex) by
	// walking its precomputed candidate set.
	opStart opKind = iota
	// opExpand matches a query edge from a bound endpoint to a free vertex.
	opExpand
	// opClose matches a query edge whose endpoints are both already bound.
	opClose
)

// planOp is one compiled step of the backtracking search. Vertex and edge
// references are dense slots into the execution context's binding arrays.
// The edge type disjunction is a bitset over the graph's dense type ids, so
// the per-half-edge type test (admits) is one bound check and one bit test.
type planOp struct {
	kind      opKind
	vslot     int32 // vertex slot bound by this op (opStart/opExpand)
	eslot     int32 // edge slot bound by this op (opExpand/opClose)
	fromSlot  int32 // bound endpoint slot (opExpand); edge-source slot (opClose)
	toSlot    int32 // edge-target slot (opClose)
	fromIsSrc bool  // opExpand: the bound endpoint plays the edge's source role
	dirs      query.Dir
	anyType   bool     // empty type disjunction: any type admitted
	types     []uint64 // bitset of the dense type ids admitted; types absent from the data have no id
	epreds    []boundPred
}

// admits reports whether the op's type disjunction admits dense type id t.
func (op *planOp) admits(t int32) bool {
	if op.anyType {
		return true
	}
	w := int(t) >> 6
	return w < len(op.types) && op.types[w]&(1<<(uint(t)&63)) != 0
}

// Plan is a compiled matching plan for one query over one data graph: query
// vertex/edge ids remapped to dense 0..n-1 slots, per-vertex candidate sets
// resolved once (shared by start scans, expansion filtering, and
// isolated-vertex binding), and search steps ordered by estimated
// selectivity (candidate count × per-type adjacency volume). A Plan is
// read-only during execution and may be shared by contexts on different
// goroutines.
type Plan struct {
	g  *graph.Graph
	nv int
	ne int

	vids []int // vertex slot → query vertex id (ascending)
	eids []int // edge slot → query edge id (in step order)

	cands []*candEntry // per vertex slot, the shared candidate set
	ops   []planOp
}

// compileScratch is what a compilation uses and no execution reads: the ids
// a candidate access path collects, the candidate-cache key, the component
// of each vertex slot, one component's edges and the planner's bound-vertex
// and used-edge flags. It lives on the compiling Ctx, so a plan pins none of
// it, and a warm context compiles without allocating.
type compileScratch struct {
	ids      []graph.VertexID
	key      []byte
	compOf   []int // vertex slot → component number, components by smallest vertex id
	compNum  []int // representative slot → component number + 1
	edges    []int // positions in q.Edges() of the component being planned
	bound    []bool
	usedEdge []bool
}

// vertexSlot maps a query vertex id to its dense slot via binary search
// (vids is ascending); -1 when absent.
func (p *Plan) vertexSlot(qid int) int {
	i := sort.SearchInts(p.vids, qid)
	if i < len(p.vids) && p.vids[i] == qid {
		return i
	}
	return -1
}

// Compile builds a reusable plan for q over the matcher's data graph. The
// plan can be executed repeatedly — and concurrently — against per-goroutine
// contexts with Plan.Count and Plan.FindRows.
func (m *Matcher) Compile(q *query.Query) *Plan {
	p := &Plan{}
	m.compileInto(p, q, new(compileScratch))
	return p
}

// compile compiles q into the context's own plan and returns it: the plan
// every count miss and every enumeration executes. It is valid until c's
// next compilation.
func (m *Matcher) compile(c *Ctx, q *query.Query) *Plan {
	m.compileInto(&c.plan, q, &c.compile)
	return &c.plan
}

// compileInto (re)compiles q into p, reusing p's backing storage and cs.
func (m *Matcher) compileInto(p *Plan, q *query.Query, cs *compileScratch) {
	g := m.g
	p.g = g
	vs := q.Vertices()
	nv := len(vs)
	p.nv = nv
	p.ne = q.NumEdges()
	p.vids = p.vids[:0]
	for _, v := range vs {
		p.vids = append(p.vids, v.ID)
	}
	p.eids = p.eids[:0]
	p.ops = p.ops[:0]

	// Grow per-slot storage.
	for len(p.cands) < nv {
		p.cands = append(p.cands, nil)
	}

	// Resolve each vertex's candidate set exactly once, through the
	// matcher's candidate cache: the rewriting searches execute thousands of
	// query variants that share almost all of their vertex predicates, so
	// most compilations never rescan the graph.
	for s, v := range vs {
		p.cands[s] = m.candidates(cs, v)
	}

	p.planOps(q, cs)
}

// flattenPreds appends the predicate map as key-sorted (key, pred) pairs.
func flattenPreds(dst []flatPred, preds map[string]query.Predicate) []flatPred {
	for k, pr := range preds {
		dst = append(dst, flatPred{key: k, pred: pr})
	}
	slices.SortFunc(dst, func(a, b flatPred) int { return cmp.Compare(a.key, b.key) })
	return dst
}

// candidatesFlat collects the data vertices satisfying the flattened
// predicates, bound to their columns first, into *scratch and returns them.
// An indexed equality predicate is preferred as the access path — its posting
// lists, value after value, are the order returned — and a scan in id order
// serves otherwise.
func (m *Matcher) candidatesFlat(preds []flatPred, scratch *[]graph.VertexID) []graph.VertexID {
	var boundBuf [8]boundPred
	bound, ok := bindPreds(boundBuf[:0], m.g.VertexColumns(), preds)
	if !ok {
		return nil
	}
	for i := range preds {
		fp := &preds[i]
		if fp.pred.Kind != query.Values || len(fp.pred.Vals) == 0 || len(fp.pred.Vals) > 4 {
			continue
		}
		pool := (*scratch)[:0]
		indexed := true
		for _, v := range fp.pred.Vals {
			ids, ok := m.g.VerticesByAttr(fp.key, v)
			if !ok {
				indexed = false
				break
			}
			pool = append(pool, ids...)
		}
		*scratch = pool
		if !indexed {
			continue
		}
		// A tombstone is 0 in every column, and a predicate is bound here.
		n := 0
		for _, id := range pool {
			if hasAll(bound, int32(id)) {
				pool[n] = id
				n++
			}
		}
		return pool[:n]
	}
	// The explicit tombstone check keeps predicate-free pattern vertices from
	// binding removed slots.
	ids := (*scratch)[:0]
	for i, nv := 0, m.g.NumVertices(); i < nv; i++ {
		if hasAll(bound, int32(i)) && !m.g.VertexRemoved(graph.VertexID(i)) {
			ids = append(ids, graph.VertexID(i))
		}
	}
	*scratch = ids
	return ids
}

// planOps orders the search: per weakly connected component, a start vertex
// chosen by minimum candidate count, then greedily — closing edges first
// (they only constrain), then the frontier edge with the smallest estimated
// selectivity score candidateCount(newVertex) × typeEdgeVolume(edge).
// Isolated vertices become bare opStart steps. All components share one
// global step sequence, so injectivity is enforced by the shared visited
// bitsets instead of a per-component result product. Components are planned
// in order of their smallest vertex id, their vertices and edges ascending;
// everything the planner tracks lives in cs.
func (p *Plan) planOps(q *query.Query, cs *compileScratch) {
	// Vertex slots are positions in q.Vertices(), so the component roots
	// are slots; number the components as their first slots appear.
	compOf := q.ComponentRoots(cs.compOf)
	cs.compOf = compOf
	cs.compNum = slices.Grow(cs.compNum[:0], p.nv)[:p.nv]
	clear(cs.compNum)
	ncomp := 0
	for _, r := range compOf {
		if cs.compNum[r] == 0 {
			ncomp++
			cs.compNum[r] = ncomp
		}
	}
	for s, r := range compOf {
		compOf[s] = cs.compNum[r] - 1
	}

	if cap(cs.bound) < p.nv {
		cs.bound = make([]bool, p.nv)
	}
	bound := cs.bound[:p.nv]
	clear(bound)

	qedges := q.Edges()
	for ci := 0; ci < ncomp; ci++ {
		edges := cs.edges[:0]
		for k, e := range qedges {
			if compOf[p.vertexSlot(e.From)] == ci {
				edges = append(edges, k)
			}
		}
		cs.edges = edges
		if len(edges) == 0 {
			// Isolated vertex (singleton component): bind from candidates.
			for s := range compOf {
				if compOf[s] == ci {
					p.nextOp(opStart, int32(s))
				}
			}
			continue
		}
		// Start vertex: fewest candidates; ties break on the smaller vertex
		// id (slots ascend with ids).
		startSlot := -1
		for s := range compOf {
			if compOf[s] == ci && (startSlot == -1 || p.cands[s].n < p.cands[startSlot].n) {
				startSlot = s
			}
		}
		bound[startSlot] = true
		p.nextOp(opStart, int32(startSlot))

		if cap(cs.usedEdge) < len(edges) {
			cs.usedEdge = make([]bool, len(edges))
		}
		used := cs.usedEdge[:len(edges)]
		clear(used)
		for picked := 0; picked < len(edges); picked++ {
			chosen, closing := -1, false
			var bestScore int64
			for i, k := range edges {
				if used[i] {
					continue
				}
				e := qedges[k]
				fs, ts := p.vertexSlot(e.From), p.vertexSlot(e.To)
				fb, tb := bound[fs], bound[ts]
				if fb && tb {
					chosen, closing = i, true
					break
				}
				if !fb && !tb {
					continue
				}
				free := fs
				if fb {
					free = ts
				}
				score := int64(p.cands[free].n+1) * (p.typeVolume(e) + 1)
				if chosen == -1 || score < bestScore {
					chosen, bestScore = i, score
				}
			}
			e := qedges[edges[chosen]]
			used[chosen] = true
			fs, ts := int32(p.vertexSlot(e.From)), int32(p.vertexSlot(e.To))
			op := p.nextOp(opClose, -1)
			op.eslot = int32(len(p.eids))
			p.eids = append(p.eids, e.ID)
			op.fromSlot, op.toSlot, op.dirs = fs, ts, e.Dirs
			op.anyType = len(e.Types) == 0
			for _, t := range e.Types {
				if id, ok := p.g.TypeID(t); ok {
					for len(op.types) <= int(id)>>6 {
						op.types = append(op.types, 0)
					}
					op.types[id>>6] |= 1 << (uint(id) & 63)
				}
			}
			var predBuf [4]flatPred
			var ok bool
			if op.epreds, ok = bindPreds(op.epreds, p.g.EdgeColumns(), flattenPreds(predBuf[:0], e.Preds)); !ok {
				// No data edge satisfies the predicates: an op that admits no
				// type matches nothing.
				op.anyType, op.types, op.epreds = false, op.types[:0], op.epreds[:0]
			}
			switch {
			case closing: // nextOp made it an opClose that binds no vertex
			case bound[fs]:
				op.kind, op.vslot, op.fromIsSrc = opExpand, ts, true
				bound[ts] = true
			default:
				op.kind, op.vslot, op.fromSlot, op.fromIsSrc = opExpand, fs, ts, false
				bound[fs] = true
			}
		}
	}
}

// nextOp appends a step of the given kind binding vertex slot vslot (-1:
// none) and no edge. It keeps the type bitset and the bound predicates'
// storage a previous compilation left at that index, emptied, so a plan
// recompiled in place plans without allocating.
func (p *Plan) nextOp(kind opKind, vslot int32) *planOp {
	n := len(p.ops)
	if n < cap(p.ops) {
		p.ops = p.ops[:n+1]
	} else {
		p.ops = append(p.ops, planOp{})
	}
	op := &p.ops[n]
	*op = planOp{kind: kind, vslot: vslot, eslot: -1, types: op.types[:0], epreds: op.epreds[:0]}
	return op
}

// typeVolume estimates the adjacency volume a query edge's expansion scans:
// the total number of data edges carrying one of its types (all edges when
// the type is deleted) — the per-type degree statistic fed by graph.Freeze.
func (p *Plan) typeVolume(e *query.Edge) int64 {
	if len(e.Types) == 0 {
		return int64(p.g.NumEdges())
	}
	var n int64
	for _, t := range e.Types {
		n += int64(p.g.TypeEdgeCount(t))
	}
	return n
}
