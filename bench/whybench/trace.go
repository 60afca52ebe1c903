package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/wire"
)

// The traced run. Layers are timed from outside, around calls into their
// public functions; nothing inside the program is instrumented. A span taken
// from outside cannot sit inside the call it explains: the whole handler and
// its stages cannot run on one engine, or the second would find the caches
// the first filled. So the replay keeps three engines per dataset over the
// same graph and moves them in lock-step, one request at a time:
//
//	C  behind an in-process server.Handler()      → span server.handle
//	B  sees one core.ExplainCtx per request       → span core.explain
//	A  sees the stages ExplainCtx is made of,     → spans match.*, mcs.*,
//	   called in its order with its options         relax.*, modtree.*, metrics.*
//
// Every engine sees every request exactly once in the same order, so their
// caches evolve identically, and a child span is the replica of what ran
// inside its parent: parent links are logical, a child's interval lies after
// its parent's. Self time is a span minus its children.

// span is one timed call.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	Parent  int    `json:"parent"`  // index of the span this one explains, -1 = none
	Request int    `json:"request"` // corpus position, -1 = a probe outside the replay
	// Warm marks a span taken while caches and lazy set-up were still filling:
	// it is written out but enters no number.
	Warm bool `json:"warm,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	warm  bool // marks the spans being recorded as warm-up
}

// time records f as a span and returns its index.
func (t *tracer) time(name string, parent, request int, f func()) int {
	began := time.Since(t.t0)
	f()
	t.spans = append(t.spans, span{name, int64(began), int64(time.Since(t.t0)), parent, request, t.warm})
	return len(t.spans) - 1
}

func (t *tracer) dur(i int) time.Duration {
	return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
}

// lockstep is one dataset's engines A and B plus A's search state (what
// core's pooled explainState holds).
type lockstep struct {
	g    *graph.Graph
	a, b *core.Engine
	rw   *relax.Rewriter
	mt   *modtree.Searcher
	ctx  *match.Ctx
}

// engineWorkers is the daemon's search width: it runs under GOMAXPROCS=2.
const engineWorkers = 2

func newEngine(g *graph.Graph) *core.Engine {
	e := core.NewEngine(g)
	e.SetWorkers(engineWorkers)
	return e
}

func (ls *lockstep) reset(g *graph.Graph, a *core.Engine) {
	ls.g, ls.a, ls.b = g, a, newEngine(g)
	m, st := a.Matcher(), a.Stats()
	ls.rw, ls.mt, ls.ctx = relax.New(m, st), modtree.New(m, st), m.NewContext()
}

// replayer is the in-process side of the traced run.
type replayer struct {
	tr      *tracer
	dss     []*dataset
	ls      []*lockstep
	handler http.Handler
	// One speculation pool per engine family, sized like the daemon's: two
	// datasets of two slots, two workers wide, and never loaded.
	poolA, poolB *search.SpecPool
	// booked holds, per replayed request, the numbers that are sums or
	// differences of spans.
	booked []booking
	failed int
	notes  []string
}

// booking is one replayed request's derived numbers. explain, stages and
// their split are zero on a match request. match is the matcher's part of
// the stages: the original count, the result enumerations, and cold − warm of
// every strategy (what the strategy spent compiling and counting).
type booking struct {
	request                int
	warm                   bool
	wall, handle, children time.Duration
	explain, stages        time.Duration
	match, scoring         time.Duration
}

func newReplayer(tr *tracer, dss []*dataset) *replayer {
	rp := &replayer{
		tr: tr, dss: dss,
		poolA: search.NewSpecPool(2*engineWorkers, engineWorkers, nil),
		poolB: search.NewSpecPool(2*engineWorkers, engineWorkers, nil),
	}
	srv := server.New(server.Config{})
	for _, ds := range dss {
		g := ds.eng.Graph()
		ls := &lockstep{}
		ls.reset(g, newEngine(g))
		rp.ls = append(rp.ls, ls)
		srv.AddDataset(ds.name, newEngine(g), ds.builtins, ds.failing)
	}
	srv.SetReady()
	rp.handler = srv.Handler()
	return rp
}

// rebuild is the write path replicated outside the server: clone, apply,
// freeze, new engine. Each step is a span; the result replaces A (and B,
// untimed) when swap is set.
func (rp *replayer) rebuild(di, parent, request int, swap bool) {
	ls := rp.ls[di]
	var g *graph.Graph
	rp.tr.time("graph.clone", parent, request, func() { g = ls.g.Clone() })
	a := g.AddVertex(graph.Attrs{"type": graph.S("loadtest"), "tag": graph.S("whybench-a")})
	b := g.AddVertex(graph.Attrs{"type": graph.S("loadtest"), "tag": graph.S("whybench-b")})
	g.AddEdge(a, b, "loadtest", nil)
	rp.tr.time("graph.freeze", parent, request, func() {
		if keys := ls.g.IndexedKeys(); len(keys) > 0 {
			g.BuildVertexIndex(keys...)
		}
		g.Freeze()
	})
	var eng *core.Engine
	rp.tr.time("core.newengine", parent, request, func() { eng = newEngine(g) })
	if swap {
		ls.reset(g, eng)
	}
}

func (rp *replayer) fail(format string, args ...any) {
	rp.failed++
	if len(rp.notes) < 10 {
		rp.notes = append(rp.notes, fmt.Sprintf(format, args...))
	}
}

// control is the search.Control core.ExplainCtx hands every strategy, less
// the counter sink: A's kernel counters are not reported.
func (rp *replayer) control(ctx context.Context) search.Control {
	return search.Control{MaxExecuted: explainBudget, Workers: engineWorkers, Ctx: ctx, SpecBudget: rp.poolA}
}

// explainStages calls, on engine A, what core.ExplainCtx calls — same order,
// same options, count cap upper×4 — each under its own span, and returns the
// summed stage time. Each strategy is called a second time at once: the
// repeat finds every plan and count of the first call cached, so the warm
// span is kernel, candidate generation and statistics, and cold − warm is
// compile and count.
func (rp *replayer) explainStages(ls *lockstep, q *query.Query, iv metrics.Interval, parent, request int, bk *booking) {
	tr, ctx := rp.tr, context.Background()
	m, st := ls.a.Matcher(), ls.a.Stats()
	ls.ctx.SetRequest(ctx)
	defer ls.ctx.SetRequest(nil)
	// stage books a span as part of core.explain, and as the named share.
	stage := func(name string, share *time.Duration, f func()) time.Duration {
		d := tr.dur(tr.time(name, parent, request, f))
		bk.stages += d
		if share != nil {
			*share += d
		}
		return d
	}
	// strategy books the cold call as a stage and the repeat's saving as the
	// matcher's share of it.
	strategy := func(name string, f func()) {
		cold := stage(name+".cold", nil, f)
		if warm := tr.dur(tr.time(name+".warm", parent, request, f)); warm < cold {
			bk.match += cold - warm
		}
	}
	var card int
	stage("match.count_original", &bk.match, func() { card = m.CountCtx(ls.ctx, q, iv.Upper*4) })
	problem := iv.Classify(card)
	if problem == metrics.Satisfied {
		return
	}
	mcsOpts := mcs.Options{Control: rp.control(ctx), UseWCC: true}
	strategy("mcs", func() { mcs.BoundedMCS(m, st, q, iv, mcsOpts) })
	var candidates []*query.Query
	if problem != metrics.WhyEmpty {
		opts := modtree.Options{Control: rp.control(ctx), Goal: iv, Domain: ls.a.Domain()}
		strategy("modtree", func() {
			candidates = candidates[:0]
			if res := ls.mt.TraverseSearchTree(q, opts); len(res.Best.Ops) > 0 {
				candidates = append(candidates, res.Best.Query)
			}
		})
	} else {
		opts := relax.Options{Control: rp.control(ctx), Goal: iv, MaxSolutions: 3, Priority: relax.PriorityCombined}
		strategy("relax", func() {
			candidates = candidates[:0]
			for _, s := range ls.rw.Rewrite(q, opts).Solutions {
				candidates = append(candidates, s.Query)
			}
		})
	}
	find := func(fq *query.Query) (rs []match.Result) {
		stage("match.find", &bk.match, func() { rs = m.FindCtx(ls.ctx, fq, match.Options{Limit: 100}) })
		return rs
	}
	orig := find(q)
	for _, c := range candidates {
		stage("metrics.syntactic", &bk.scoring, func() { metrics.SyntacticDistance(q, c) })
		// With an empty side the distance is a constant; only the real
		// assignment problems are the layer's timing.
		if rs := find(c); len(orig) > 0 && len(rs) > 0 {
			stage("metrics.resultdist", &bk.scoring, func() { metrics.ResultSetDistance(orig, rs) })
		}
	}
}

// envelope marshals a payload the way the server's writeData does. Only the
// time matters: the bytes, and an error no wire type can cause, are dropped.
func envelope(v any) {
	blob, _ := json.Marshal(v)
	_, _ = json.Marshal(wire.Envelope{RequestID: "00000000", Data: blob})
}

// decodeStrict is the server's decodeBody without the size cap.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replay runs request i through C, then through the replicas, and books the
// request's derived numbers.
func (rp *replayer) replay(r *request, i int) {
	tr := rp.tr
	began := time.Now()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body))
	h := tr.time("server.handle", -1, i, func() { rp.handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		rp.fail("replayed request %d (%s): status %d: %.200s", i, r.kind, rec.Code, rec.Body.Bytes())
		return
	}
	ls := rp.ls[r.dataset]
	bk := booking{request: i, warm: tr.warm, handle: tr.dur(h)}
	child := func(name string, f func()) {
		bk.children += tr.dur(tr.time(name, h, i, f))
	}
	switch r.kind {
	case "mutate":
		rp.rebuild(r.dataset, h, i, true)
		return
	case "explain":
		var q *query.Query
		child("wire.decode", func() {
			var er wire.ExplainRequest
			if err := decodeStrict(r.body, &er); err != nil {
				rp.fail("replayed request %d: %v", i, err)
			} else if er.Query != nil {
				q, _ = er.Query.ToQuery()
			}
		})
		if q == nil {
			q = r.q // a built-in: the server resolves it by name
		}
		var rep *core.Report
		ex := tr.time("core.explain", h, i, func() {
			rep, _ = ls.b.ExplainCtx(context.Background(), q, core.Options{
				Expected: r.expected, Budget: explainBudget, SpecBudget: rp.poolB,
			})
		})
		bk.explain = tr.dur(ex)
		bk.children += bk.explain
		if rep == nil {
			rp.fail("replayed request %d: engine B returned no report", i)
			return
		}
		rp.explainStages(ls, q, r.expected, ex, i, &bk)
		child("wire.encode", func() { envelope(wire.FromReport(rep)) })
	case "match":
		var q *query.Query
		child("wire.decode", func() {
			var mr wire.MatchRequest
			if err := decodeStrict(r.body, &mr); err != nil {
				rp.fail("replayed request %d: %v", i, err)
			} else if mr.Query != nil {
				q, _ = mr.Query.ToQuery()
			}
		})
		if q == nil {
			rp.fail("replayed request %d: no query", i)
			return
		}
		m := ls.a.Matcher()
		if r.find {
			var rs []match.Result
			child("match.find", func() {
				rs = m.Find(q, match.Options{Limit: findLimit})
				match.SortResults(rs)
			})
			child("wire.encode", func() {
				resp := wire.MatchResponse{Count: len(rs)}
				for _, res := range rs {
					resp.Results = append(resp.Results, wire.FromResult(res))
				}
				envelope(resp)
			})
		} else {
			var n int
			child("match.count_original", func() { n = m.Count(q, countCapUnique) })
			child("wire.encode", func() { envelope(wire.MatchResponse{Count: n}) })
		}
	}
	bk.wall = time.Since(began)
	rp.booked = append(rp.booked, bk)
}

// byName gathers the durations of the spans that count, per span name.
func (t *tracer) byName() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		if !s.Warm {
			out[s.Name] = append(out[s.Name], t.dur(i))
		}
	}
	return out
}

// timing summarises span durations in the given unit.
func timing(ds []time.Duration, unit func(time.Duration) float64) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return summarize(xs)
}
