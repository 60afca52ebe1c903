package match

import (
	"context"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/query"
)

// Ctx is a reusable execution context: flat binding slots for query vertices
// and edges plus data-side visited bitsets sized to the data graph. Reusing
// one Ctx across the thousands of capped Count calls issued by the
// relaxation and modification searches keeps the inner matching loop
// allocation-free. A Ctx must not be shared between goroutines; create one
// per goroutine with Matcher.NewContext.
type Ctx struct {
	visV  []uint64 // visited data vertices (injectivity)
	visE  []uint64 // visited data edges (injectivity)
	vBind []graph.VertexID
	eBind []graph.EdgeID

	// cntBuf is scratch for a query's (binary canonical key, cap)
	// count-cache key, so cache hits allocate nothing.
	cntBuf []byte

	// plan is what every count miss and every enumeration on this context
	// compiles into, and compile that compilation's scratch: a warm context
	// recompiles in place without allocating.
	plan    Plan
	compile compileScratch

	// per-run state
	p     *Plan
	mode  uint8
	cap   int // count cap (modeCount; 0 = exact)
	n     int
	limit int   // result limit (modeFind; 0 = unlimited)
	rows  *Rows // where modeFind appends embeddings

	// found is the row buffer behind Find and FindCtx, which hand out
	// result graphs and have no caller-owned Rows to fill.
	found Rows
}

// SetRequest does nothing: an execution context holds no request state. It
// stays, inert, until the benchmark harness that calls it stops doing so.
func (c *Ctx) SetRequest(context.Context) {}

const (
	modeCount uint8 = iota
	modeFind
)

// NewContext returns a fresh execution context sized to the matcher's graph.
func (m *Matcher) NewContext() *Ctx { return newCtx(m.g) }

func newCtx(g *graph.Graph) *Ctx {
	return &Ctx{
		visV: make([]uint64, (g.NumVertices()+63)/64),
		visE: make([]uint64, (g.NumEdges()+63)/64),
	}
}

// ensure sizes the context for the plan. Visited bitsets only grow (their
// bits are always unwound by backtracking, so no clearing is needed).
func (c *Ctx) ensure(p *Plan) {
	wv := (p.g.NumVertices() + 63) / 64
	for len(c.visV) < wv {
		c.visV = append(c.visV, 0)
	}
	we := (p.g.NumEdges() + 63) / 64
	for len(c.visE) < we {
		c.visE = append(c.visE, 0)
	}
	if cap(c.vBind) < p.nv {
		c.vBind = make([]graph.VertexID, p.nv)
	}
	c.vBind = c.vBind[:p.nv]
	if cap(c.eBind) < p.ne {
		c.eBind = make([]graph.EdgeID, p.ne)
	}
	c.eBind = c.eBind[:p.ne]
}

// Count executes the plan and returns the number of embeddings C(Q). A
// non-zero cap stops early once reached. When the plan ends in an expansion,
// that last step is counted, not enumerated (countOver): it binds nothing a
// later step reads, so its admissible half-edges are simply added up. Any
// scan order reaches min(C(Q), cap), so the count is the enumeration's.
// Count performs no allocations on a compiled plan.
func (p *Plan) Count(c *Ctx, cap int) int {
	if p.nv == 0 {
		return 0
	}
	c.ensure(p)
	c.p, c.mode, c.cap, c.n = p, modeCount, cap, 0
	c.exec(0)
	c.p = nil
	return c.n
}

// emit consumes one complete embedding; it returns false to stop the search.
func (c *Ctx) emit() bool {
	if c.mode == modeCount {
		c.n++
		return c.cap == 0 || c.n < c.cap
	}
	r := c.rows
	for _, d := range c.vBind {
		r.IDs = append(r.IDs, int32(d))
	}
	for _, d := range c.eBind {
		r.IDs = append(r.IDs, int32(d))
	}
	r.n++
	return c.limit == 0 || r.n < c.limit
}

// exec runs the compiled op at index i, recursing into i+1 for every local
// match. It returns false when the enumeration should stop entirely.
func (c *Ctx) exec(i int) bool {
	p := c.p
	if i == len(p.ops) {
		return c.emit()
	}
	op := &p.ops[i]
	switch op.kind {
	case opStart:
		e := p.cands[op.vslot]
		if e.order != nil {
			for _, dv := range e.order {
				if !c.start(i, op, dv) {
					return false
				}
			}
			return true
		}
		for k, w := range e.bits {
			base := (e.lo + k) << 6
			for ; w != 0; w &= w - 1 {
				if !c.start(i, op, graph.VertexID(base|bits.TrailingZeros64(w))) {
					return false
				}
			}
		}
		return true

	case opExpand:
		db := c.vBind[op.fromSlot]
		// A count's last step binds nothing a later step reads: it is counted.
		leaf := c.mode == modeCount && i == len(p.ops)-1
		// Forward direction: the data edge runs source → target.
		if op.dirs.Has(query.Forward) {
			adj := p.g.OutAdj(db)
			if !op.fromIsSrc {
				adj = p.g.InAdj(db)
			}
			if !c.expandStep(i, op, adj, leaf) {
				return false
			}
		}
		// Backward direction: the data edge runs target → source.
		if op.dirs.Has(query.Backward) {
			adj := p.g.InAdj(db)
			if !op.fromIsSrc {
				adj = p.g.OutAdj(db)
			}
			if !c.expandStep(i, op, adj, leaf) {
				return false
			}
		}
		return true

	default: // opClose
		df, dt := c.vBind[op.fromSlot], c.vBind[op.toSlot]
		if op.dirs.Has(query.Forward) {
			if !c.closeOver(i, op, p.g.OutAdj(df), dt) {
				return false
			}
		}
		// A self-loop (df == dt) already fully covered by the forward scan
		// must not be scanned again backward — that would double-count every
		// matching data edge.
		if op.dirs.Has(query.Backward) && !(df == dt && op.dirs.Has(query.Forward)) {
			if !c.closeOver(i, op, p.g.OutAdj(dt), df) {
				return false
			}
		}
		return true
	}
}

// start binds the opStart op's vertex to candidate dv unless an earlier step
// bound dv, and runs the rest of the plan.
func (c *Ctx) start(i int, op *planOp, dv graph.VertexID) bool {
	w, b := int(dv)>>6, uint64(1)<<(uint(dv)&63)
	if c.visV[w]&b != 0 {
		return true
	}
	c.visV[w] |= b
	c.vBind[op.vslot] = dv
	cont := c.exec(i + 1)
	c.visV[w] &^= b
	return cont
}

// expandOver scans one packed adjacency list for the expand op, binding the
// free vertex and edge for every admissible half-edge. A half-edge is tested
// cheapest first: its type (already in the loaded Adj), the candidate window,
// the visited far vertex, then the edge predicates. No visited-edge test is
// needed: an edge bound by an earlier step has both endpoints bound, so its
// far vertex fails the visited-vertex test — and so does a self-loop's, which
// is the bound vertex itself. The edge bit is still set for closeOver.
func (c *Ctx) expandOver(i int, op *planOp, adj []graph.Adj) bool {
	cand := c.p.cands[op.vslot]
	lo, words := cand.lo, cand.bits
	for k := range adj {
		a := &adj[k]
		if !op.admits(a.Type) {
			continue
		}
		dv := a.Vertex
		vw, vb := int(dv)>>6, uint64(1)<<(uint(dv)&63)
		if uint(vw-lo) >= uint(len(words)) || words[vw-lo]&vb == 0 || c.visV[vw]&vb != 0 {
			continue
		}
		if !hasAll(op.epreds, int32(a.Edge)) {
			continue
		}
		ew, eb := int(a.Edge)>>6, uint64(1)<<(uint(a.Edge)&63)
		c.visV[vw] |= vb
		c.visE[ew] |= eb
		c.vBind[op.vslot] = dv
		c.eBind[op.eslot] = a.Edge
		cont := c.exec(i + 1)
		c.visV[vw] &^= vb
		c.visE[ew] &^= eb
		if !cont {
			return false
		}
	}
	return true
}

// expandStep runs the expand op over one adjacency list: counted when the op
// is the last step of a count (leaf), enumerated otherwise.
func (c *Ctx) expandStep(i int, op *planOp, adj []graph.Adj, leaf bool) bool {
	if leaf {
		return c.countOver(op, adj)
	}
	return c.expandOver(i, op, adj)
}

// countOver is expandOver for the last step of a count: it makes the same
// tests in the same order and adds one to c.n per admissible half-edge,
// binding and marking nothing. It returns false once a non-zero cap is
// reached.
func (c *Ctx) countOver(op *planOp, adj []graph.Adj) bool {
	cand := c.p.cands[op.vslot]
	lo, words := cand.lo, cand.bits
	n := c.n
	for k := range adj {
		a := &adj[k]
		if !op.admits(a.Type) {
			continue
		}
		dv := a.Vertex
		vw, vb := int(dv)>>6, uint64(1)<<(uint(dv)&63)
		if uint(vw-lo) >= uint(len(words)) || words[vw-lo]&vb == 0 || c.visV[vw]&vb != 0 {
			continue
		}
		if !hasAll(op.epreds, int32(a.Edge)) {
			continue
		}
		if n++; n == c.cap {
			c.n = n
			return false
		}
	}
	c.n = n
	return true
}

// closeOver scans one packed adjacency list for the close op, admitting only
// half-edges whose far endpoint is the already-bound want vertex.
func (c *Ctx) closeOver(i int, op *planOp, adj []graph.Adj, want graph.VertexID) bool {
	for k := range adj {
		a := &adj[k]
		if a.Vertex != want {
			continue
		}
		ew, eb := int(a.Edge)>>6, uint64(1)<<(uint(a.Edge)&63)
		if c.visE[ew]&eb != 0 {
			continue
		}
		if !edgeOK(op, a) {
			continue
		}
		c.visE[ew] |= eb
		c.eBind[op.eslot] = a.Edge
		cont := c.exec(i + 1)
		c.visE[ew] &^= eb
		if !cont {
			return false
		}
	}
	return true
}

// edgeOK checks the op's type bitset (a dense type id, no string comparison)
// and bound edge predicates (one column load each, no edge record) against
// one half-edge.
func edgeOK(op *planOp, a *graph.Adj) bool {
	return op.admits(a.Type) && hasAll(op.epreds, int32(a.Edge))
}
