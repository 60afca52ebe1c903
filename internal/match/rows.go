package match

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/query"
)

// Rows is a result set in row form. Every result graph of one query binds
// the same query vertices and edges, so the set is a column header — the
// query ids, as the plan orders its slots — and one fixed-width tuple of data
// ids per result, all tuples in one flat slice. It is what the enumerator
// emits and what the result-distance kernel (internal/metrics) reads; a Rows
// value owns its storage and is refilled in place, so a caller that keeps one
// enumerates without allocating.
type Rows struct {
	// VIDs and EIDs name the columns: the query vertex id of each vertex
	// column (ascending), then the query edge id of each edge column.
	VIDs []int
	EIDs []int
	// IDs holds Len() tuples of Width() data ids, row after row: a result's
	// vertex bindings in VIDs order, then its edge bindings in EIDs order.
	IDs []int32

	n int
}

// Len returns the number of results.
func (r *Rows) Len() int { return r.n }

// Width returns the number of columns: the query elements a result binds.
func (r *Rows) Width() int { return len(r.VIDs) + len(r.EIDs) }

// Row returns result i's tuple, a window into IDs.
func (r *Rows) Row(i int) []int32 {
	w := r.Width()
	return r.IDs[i*w : (i+1)*w]
}

// reset empties the set and names its columns, keeping the storage.
func (r *Rows) reset(vids, eids []int) {
	r.VIDs = append(r.VIDs[:0], vids...)
	r.EIDs = append(r.EIDs[:0], eids...)
	r.IDs = r.IDs[:0]
	r.n = 0
}

// Results converts the rows into result graphs, one map pair per result —
// the form the callers outside the scoring path (reports, /v1/match, tests)
// consume.
func (r *Rows) Results() []Result {
	if r.n == 0 {
		return nil
	}
	out := make([]Result, r.n)
	nv := len(r.VIDs)
	for i := range out {
		row := r.Row(i)
		res := Result{
			VertexMap: make(map[int]graph.VertexID, nv),
			EdgeMap:   make(map[int]graph.EdgeID, len(r.EIDs)),
		}
		for s, qid := range r.VIDs {
			res.VertexMap[qid] = graph.VertexID(row[s])
		}
		for s, qid := range r.EIDs {
			res.EdgeMap[qid] = graph.EdgeID(row[nv+s])
		}
		out[i] = res
	}
	return out
}

// SetResults refills r from result graphs — the inverse of Results, for
// callers that hold the map form. The columns are the ids the first result
// binds; the results of one set must all bind the same ids, as the results of
// one query do, and SetResults panics on a set that does not.
func (r *Rows) SetResults(rs []Result) {
	r.reset(nil, nil)
	if len(rs) == 0 {
		return
	}
	for qid := range rs[0].VertexMap {
		r.VIDs = append(r.VIDs, qid)
	}
	for qid := range rs[0].EdgeMap {
		r.EIDs = append(r.EIDs, qid)
	}
	slices.Sort(r.VIDs)
	slices.Sort(r.EIDs)
	for _, res := range rs {
		same := len(res.VertexMap) == len(r.VIDs) && len(res.EdgeMap) == len(r.EIDs)
		for _, qid := range r.VIDs {
			d, ok := res.VertexMap[qid]
			same = same && ok
			r.IDs = append(r.IDs, int32(d))
		}
		for _, qid := range r.EIDs {
			d, ok := res.EdgeMap[qid]
			same = same && ok
			r.IDs = append(r.IDs, int32(d))
		}
		if !same {
			panic("match: the results of one set bind different query ids")
		}
	}
	r.n = len(rs)
}

// FindRows enumerates result graphs for q up to opts.Limit into rows,
// replacing its contents. It is the one enumeration path: Find and FindCtx
// convert its output. With a plan-cache hit and a rows value that has grown
// to the sample size it allocates nothing.
func (m *Matcher) FindRows(c *Ctx, q *query.Query, opts Options, rows *Rows) {
	if q.NumVertices() == 0 {
		rows.reset(nil, nil)
		return
	}
	if m.planOff {
		p := m.getPlan(q)
		defer m.plans.Put(p)
		p.FindRows(c, opts, rows)
		return
	}
	c.loadKey(q, "")
	m.cachedPlan(c, q).FindRows(c, opts, rows)
}

// FindRows executes the plan and appends one row per embedding, up to
// opts.Limit, to rows (emptied first).
func (p *Plan) FindRows(c *Ctx, opts Options, rows *Rows) {
	rows.reset(p.vids, p.eids)
	if p.nv == 0 {
		return
	}
	c.ensure(p)
	c.p, c.mode, c.limit, c.rows = p, modeFind, opts.Limit, rows
	c.exec(0)
	c.p, c.rows = nil, nil
}
