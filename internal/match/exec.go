package match

import (
	"context"

	"repro/internal/graph"
	"repro/internal/query"
)

// Ctx is a reusable execution context: flat binding slots for query vertices
// and edges plus data-side visited bitsets sized to the data graph. Reusing
// one Ctx across the thousands of Count/Exists calls issued by the
// relaxation and modification searches keeps the inner matching loop
// allocation-free. A Ctx must not be shared between goroutines; create one
// per worker with Matcher.NewContext.
type Ctx struct {
	visV  []uint64 // visited data vertices (injectivity)
	visE  []uint64 // visited data edges (injectivity)
	vBind []graph.VertexID
	eBind []graph.EdgeID

	// keyBuf and cntBuf are scratch for deriving a query's binary canonical
	// key and its (key, cap) count-cache key during cache lookups, so cache
	// hits allocate nothing.
	keyBuf []byte
	cntBuf []byte

	// req is the serving request's context, carried on the execution context
	// so a count delegate (internal/shard's scatter-gather eval) can recover
	// per-request state — the shard session — from deep inside the search
	// kernel's opaque eval closures. Nil outside a request.
	req context.Context

	// per-run state
	p     *Plan
	mode  uint8
	cap   int // count cap (modeCount; 0 = exact)
	n     int
	limit int   // result limit (modeFind; 0 = unlimited)
	rows  *Rows // where modeFind appends embeddings

	// found is the row buffer behind Find/FindCtx/Plan.Find, which hand out
	// result graphs and have no caller-owned Rows to fill.
	found Rows

	// root-range restriction (CountRange): when rootRange is set, the plan's
	// first start op only binds data vertices in [rootLo, rootHi) — the
	// vertex-range work partition of the sharded scatter-gather counting.
	rootLo, rootHi int
	rootRange      bool
}

// SetRequest attaches (or, with nil, detaches) the serving request's context.
// The search layers set it when a run begins so the matcher's count delegate
// can see per-request state; it never cancels or times the execution itself.
func (c *Ctx) SetRequest(ctx context.Context) { c.req = ctx }

// Request returns the attached request context, context.Background() when
// none is attached.
func (c *Ctx) Request() context.Context {
	if c.req == nil {
		return context.Background()
	}
	return c.req
}

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
// non-zero cap stops early once reached. Count performs no allocations on a
// compiled plan.
func (p *Plan) Count(c *Ctx, cap int) int { return p.count(c, cap, 0, 0, false) }

// CountRange is Count restricted to embeddings whose binding of the plan's
// root vertex — the first start op's slot — lies in [lo, hi). Because every
// embedding binds the root exactly once, the counts of a partition of the
// vertex-id space sum to the unrestricted count: this is the shard-local
// evaluation of the scatter-gather counting (internal/shard). Enumeration
// order within the range is identical to Count's, so capped range counts are
// deterministic.
func (p *Plan) CountRange(c *Ctx, cap, lo, hi int) int { return p.count(c, cap, lo, hi, true) }

func (p *Plan) count(c *Ctx, cap, lo, hi int, ranged bool) int {
	if p.nv == 0 {
		return 0
	}
	c.ensure(p)
	c.p, c.mode, c.cap, c.n = p, modeCount, cap, 0
	c.rootLo, c.rootHi, c.rootRange = lo, hi, ranged
	c.exec(0)
	c.p, c.rootRange = nil, false
	return c.n
}

// Find executes the plan and materializes result graphs up to opts.Limit.
func (p *Plan) Find(c *Ctx, opts Options) []Result {
	p.FindRows(c, opts, &c.found)
	return c.found.Results()
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
		for _, dv := range p.cands[op.vslot] {
			// The root-range restriction applies to the plan's first op only:
			// ops[0] is always a start (planOps emits the densest component's
			// start vertex first), and partitioning exactly one binding slot is
			// what makes per-shard counts sum to the whole.
			if i == 0 && c.rootRange && (int(dv) < c.rootLo || int(dv) >= c.rootHi) {
				continue
			}
			w, b := int(dv)>>6, uint64(1)<<(uint(dv)&63)
			if c.visV[w]&b != 0 {
				continue
			}
			c.visV[w] |= b
			c.vBind[op.vslot] = dv
			cont := c.exec(i + 1)
			c.visV[w] &^= b
			if !cont {
				return false
			}
		}
		return true

	case opExpand:
		db := c.vBind[op.fromSlot]
		// Forward direction: the data edge runs source → target.
		if op.dirs.Has(query.Forward) {
			adj := p.g.OutAdj(db)
			if !op.fromIsSrc {
				adj = p.g.InAdj(db)
			}
			if !c.expandOver(i, op, adj) {
				return false
			}
		}
		// Backward direction: the data edge runs target → source.
		if op.dirs.Has(query.Backward) {
			adj := p.g.InAdj(db)
			if !op.fromIsSrc {
				adj = p.g.OutAdj(db)
			}
			if !c.expandOver(i, op, adj) {
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

// expandOver scans one packed adjacency list for the expand op, binding the
// free vertex and edge for every admissible half-edge.
func (c *Ctx) expandOver(i int, op *planOp, adj []graph.Adj) bool {
	p := c.p
	bits := p.candBits[op.vslot]
	for k := range adj {
		a := &adj[k]
		ew, eb := int(a.Edge)>>6, uint64(1)<<(uint(a.Edge)&63)
		if c.visE[ew]&eb != 0 {
			continue
		}
		dv := a.Vertex
		vw, vb := int(dv)>>6, uint64(1)<<(uint(dv)&63)
		if c.visV[vw]&vb != 0 || bits[vw]&vb == 0 {
			continue
		}
		if !edgeOK(op, a) {
			continue
		}
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

// edgeOK checks the op's type disjunction (as dense type ids, no string
// comparison) and bound edge predicates (one column load each, no edge record)
// against one half-edge.
func edgeOK(op *planOp, a *graph.Adj) bool {
	if !op.anyType {
		ok := false
		for _, t := range op.types {
			if t == a.Type {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return hasAll(op.epreds, int32(a.Edge))
}
