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
// binding never costs more than the scan it spares. ok is false when some
// predicate admits no value of its column: nothing can match.
func bindPreds(dst []boundPred, cols map[string]*graph.Column, preds []flatPred) (bound []boundPred, ok bool) {
	for i := range preds {
		fp := &preds[i]
		col := cols[fp.key]
		if col == nil {
			return dst, false
		}
		admit := make([]uint64, (len(col.Vals)+63)/64)
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
// a candidate access path collects, the candidate-cache key and the
// planner's bound-vertex and used-edge flags. It lives on the compiling Ctx,
// so a cached plan pins none of it.
type compileScratch struct {
	ids      []graph.VertexID
	key      []byte
	bound    []bool
	usedEdge []bool
}

// CandidateCount returns the compiled candidate-set size of a query vertex
// id, or -1 when the vertex is not part of the plan.
func (p *Plan) CandidateCount(qid int) int {
	s := p.vertexSlot(qid)
	if s < 0 {
		return -1
	}
	return p.cands[s].n
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
// contexts with Plan.Count, Plan.Find, and Plan.FindRows.
func (m *Matcher) Compile(q *query.Query) *Plan {
	p := &Plan{}
	m.compileInto(p, q, new(compileScratch))
	return p
}

// compileInto (re)compiles q into p, reusing p's backing storage and cs.
func (m *Matcher) compileInto(p *Plan, q *query.Query, cs *compileScratch) {
	g := m.g
	p.g = g
	vids := q.VertexIDs()
	nv := len(vids)
	p.nv = nv
	p.ne = q.NumEdges()
	p.vids = append(p.vids[:0], vids...)
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
	for s := 0; s < nv; s++ {
		p.cands[s] = m.candidates(cs, q.Vertex(vids[s]))
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
// bitsets instead of a per-component result product.
func (p *Plan) planOps(q *query.Query, cs *compileScratch) {
	comps := q.WeaklyConnectedComponents()
	eidsAll := q.EdgeIDs()

	// Component index per vertex slot.
	compOf := make([]int, p.nv)
	for ci, comp := range comps {
		for _, vid := range comp {
			compOf[p.vertexSlot(vid)] = ci
		}
	}
	edgesByComp := make([][]int, len(comps))
	for _, eid := range eidsAll {
		e := q.Edge(eid)
		ci := compOf[p.vertexSlot(e.From)]
		edgesByComp[ci] = append(edgesByComp[ci], eid)
	}

	if cap(cs.bound) < p.nv {
		cs.bound = make([]bool, p.nv)
	}
	bound := cs.bound[:p.nv]
	clear(bound)

	for ci, comp := range comps {
		edges := edgesByComp[ci]
		if len(edges) == 0 {
			// Isolated vertex (singleton component): bind from candidates.
			for _, vid := range comp {
				p.ops = append(p.ops, planOp{kind: opStart, vslot: int32(p.vertexSlot(vid)), eslot: -1})
			}
			continue
		}
		// Start vertex: fewest candidates; ties break on smaller vertex id
		// (comp is ascending).
		best, bestCount := -1, -1
		for _, vid := range comp {
			c := p.cands[p.vertexSlot(vid)].n
			if best == -1 || c < bestCount {
				best, bestCount = vid, c
			}
		}
		startSlot := p.vertexSlot(best)
		bound[startSlot] = true
		p.ops = append(p.ops, planOp{kind: opStart, vslot: int32(startSlot), eslot: -1})

		if cap(cs.usedEdge) < len(edges) {
			cs.usedEdge = make([]bool, len(edges))
		}
		used := cs.usedEdge[:len(edges)]
		clear(used)
		for picked := 0; picked < len(edges); picked++ {
			chosen, closing := -1, false
			var bestScore int64
			for i, eid := range edges {
				if used[i] {
					continue
				}
				e := q.Edge(eid)
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
			e := q.Edge(edges[chosen])
			used[chosen] = true
			fs, ts := int32(p.vertexSlot(e.From)), int32(p.vertexSlot(e.To))
			eslot := int32(len(p.eids))
			p.eids = append(p.eids, e.ID)
			op := planOp{eslot: eslot, fromSlot: fs, toSlot: ts, dirs: e.Dirs}
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
			if op.epreds, ok = bindPreds(nil, p.g.EdgeColumns(), flattenPreds(predBuf[:0], e.Preds)); !ok {
				// No data edge satisfies the predicates: an op that admits no
				// type matches nothing.
				op.anyType, op.types, op.epreds = false, nil, nil
			}
			if closing {
				op.kind = opClose
				op.vslot = -1
			} else if bound[fs] {
				op.kind = opExpand
				op.vslot = ts
				op.fromIsSrc = true
				bound[ts] = true
			} else {
				op.kind = opExpand
				op.vslot = fs
				op.fromSlot = ts
				op.fromIsSrc = false
				bound[fs] = true
			}
			p.ops = append(p.ops, op)
		}
	}
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
