// Package wire defines the JSON wire format of the why-query service layer:
// encodings for queries (the set-based model of §3.2.2), explanation reports
// (core.Report with the three comparison levels of Chapter 3), subgraph
// explanations (Chapter 4), match results, and the request/response envelopes
// of the whydbd HTTP API. The one encoding is shared by internal/server (the
// daemon), cmd/whydb (the one-shot demonstrator's -json mode), and
// cmd/whyload (the load generator), so a report rendered anywhere is
// byte-comparable with a report rendered everywhere else.
//
// Design constraints:
//
//   - Deterministic: encoding any value twice yields identical bytes
//     (element order follows ascending identifiers, predicate maps are
//     struct-encoded per attribute key through Go's sorted map marshaling).
//   - Total on engine output: every query the engine can produce — including
//     rewritten queries with identifier gaps left by vertex/edge deletions —
//     round-trips through Query → ToQuery → FromQuery unchanged.
//   - Infinity-safe: JSON has no ±Inf, so unbounded range predicate ends are
//     encoded by omission (lo/hi absent = unbounded).
package wire

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Value is an attribute value: exactly one of the three kinds.
type Value struct {
	Kind string  `json:"kind"` // "string" | "number" | "bool"
	Str  string  `json:"str,omitempty"`
	Num  float64 `json:"num,omitempty"`
	Bool bool    `json:"bool,omitempty"`
}

// FromValue encodes a graph attribute value.
func FromValue(v graph.Value) Value {
	switch v.Kind {
	case graph.KindNumber:
		return Value{Kind: "number", Num: v.Num}
	case graph.KindBool:
		return Value{Kind: "bool", Bool: v.Bool}
	default:
		return Value{Kind: "string", Str: v.Str}
	}
}

// ToValue decodes into a graph attribute value.
func (v Value) ToValue() (graph.Value, error) {
	switch v.Kind {
	case "string":
		return graph.S(v.Str), nil
	case "number":
		return graph.N(v.Num), nil
	case "bool":
		return graph.B(v.Bool), nil
	default:
		return graph.Value{}, fmt.Errorf("wire: unknown value kind %q", v.Kind)
	}
}

// Predicate is a predicate interval: a value disjunction ("values") or a
// numeric range ("range"). Absent lo/hi mean unbounded below/above.
type Predicate struct {
	Kind   string   `json:"kind"` // "values" | "range"
	Values []Value  `json:"values,omitempty"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
	IncLo  bool     `json:"incLo,omitempty"`
	IncHi  bool     `json:"incHi,omitempty"`
}

// FromPredicate encodes a query predicate.
func FromPredicate(p query.Predicate) Predicate {
	if p.Kind == query.Range {
		wp := Predicate{Kind: "range", IncLo: p.IncLo, IncHi: p.IncHi}
		if !math.IsInf(p.Lo, 0) {
			lo := p.Lo
			wp.Lo = &lo
		}
		if !math.IsInf(p.Hi, 0) {
			hi := p.Hi
			wp.Hi = &hi
		}
		return wp
	}
	wp := Predicate{Kind: "values", Values: make([]Value, len(p.Vals))}
	for i, v := range p.Vals {
		wp.Values[i] = FromValue(v)
	}
	return wp
}

// ToPredicate decodes into a query predicate.
func (p Predicate) ToPredicate() (query.Predicate, error) {
	switch p.Kind {
	case "values":
		if len(p.Values) == 0 {
			return query.Predicate{}, fmt.Errorf("wire: values predicate needs at least one value")
		}
		vals := make([]graph.Value, len(p.Values))
		for i, wv := range p.Values {
			v, err := wv.ToValue()
			if err != nil {
				return query.Predicate{}, err
			}
			vals[i] = v
		}
		return query.In(vals...), nil
	case "range":
		qp := query.Predicate{Kind: query.Range, IncLo: p.IncLo, IncHi: p.IncHi}
		qp.Lo, qp.Hi = math.Inf(-1), math.Inf(1)
		if p.Lo != nil {
			qp.Lo = *p.Lo
		}
		if p.Hi != nil {
			qp.Hi = *p.Hi
		}
		if qp.Hi < qp.Lo {
			return query.Predicate{}, fmt.Errorf("wire: range predicate with hi %v < lo %v", qp.Hi, qp.Lo)
		}
		return qp, nil
	default:
		return query.Predicate{}, fmt.Errorf("wire: unknown predicate kind %q", p.Kind)
	}
}

// Vertex is a query vertex: identifier plus predicate intervals per
// attribute.
type Vertex struct {
	ID    int                  `json:"id"`
	Preds map[string]Predicate `json:"preds,omitempty"`
}

// Edge is a query edge: identifier, endpoints, type disjunction, direction
// ("->", "<-", "--"; absent = "->"), and predicate intervals.
type Edge struct {
	ID    int                  `json:"id"`
	From  int                  `json:"from"`
	To    int                  `json:"to"`
	Types []string             `json:"types,omitempty"`
	Dir   string               `json:"dir,omitempty"`
	Preds map[string]Predicate `json:"preds,omitempty"`
}

// Query is a pattern-matching query in the set-based model. Vertices and
// edges are listed in ascending identifier order; identifiers may have gaps
// (rewritten queries keep the original's identifiers after deletions).
type Query struct {
	Vertices []Vertex `json:"vertices"`
	Edges    []Edge   `json:"edges,omitempty"`
}

// FromQuery encodes a query; elements appear in ascending identifier order,
// so the encoding is deterministic.
func FromQuery(q *query.Query) Query {
	wq := Query{}
	for _, vid := range q.VertexIDs() {
		v := q.Vertex(vid)
		wv := Vertex{ID: vid}
		if len(v.Preds) > 0 {
			wv.Preds = make(map[string]Predicate, len(v.Preds))
			for attr, p := range v.Preds {
				wv.Preds[attr] = FromPredicate(p)
			}
		}
		wq.Vertices = append(wq.Vertices, wv)
	}
	for _, eid := range q.EdgeIDs() {
		e := q.Edge(eid)
		we := Edge{ID: eid, From: e.From, To: e.To, Dir: e.Dirs.String()}
		if len(e.Types) > 0 {
			we.Types = append([]string(nil), e.Types...)
		}
		if len(e.Preds) > 0 {
			we.Preds = make(map[string]Predicate, len(e.Preds))
			for attr, p := range e.Preds {
				we.Preds[attr] = FromPredicate(p)
			}
		}
		wq.Edges = append(wq.Edges, we)
	}
	return wq
}

// MaxElementID bounds vertex and edge identifiers in decoded queries. Real
// queries carry a handful of elements; identifiers far beyond what a request
// body can hold elements for are rejected up front.
const MaxElementID = 1<<16 - 1

// ToQuery decodes into an executable query holding exactly the declared
// elements under their declared identifiers. Identifiers must be unique,
// strictly ascending within vertices and within edges, and at most
// MaxElementID; gaps are allowed (the engine's own rewritten queries have
// them after deletions).
func (wq Query) ToQuery() (*query.Query, error) {
	if len(wq.Vertices) == 0 {
		return nil, fmt.Errorf("wire: query needs at least one vertex")
	}
	q := query.New()
	prev := -1
	for _, wv := range wq.Vertices {
		if wv.ID <= prev {
			return nil, fmt.Errorf("wire: vertex ids must be unique and ascending (got %d after %d)", wv.ID, prev)
		}
		if wv.ID > MaxElementID {
			return nil, fmt.Errorf("wire: vertex id %d exceeds the maximum %d", wv.ID, MaxElementID)
		}
		preds, err := toPreds(wv.Preds)
		if err != nil {
			return nil, fmt.Errorf("wire: vertex %d: %w", wv.ID, err)
		}
		q.AddVertexID(wv.ID, preds)
		prev = wv.ID
	}
	prev = -1
	for _, we := range wq.Edges {
		if we.ID <= prev {
			return nil, fmt.Errorf("wire: edge ids must be unique and ascending (got %d after %d)", we.ID, prev)
		}
		if we.ID > MaxElementID {
			return nil, fmt.Errorf("wire: edge id %d exceeds the maximum %d", we.ID, MaxElementID)
		}
		if q.Vertex(we.From) == nil || q.Vertex(we.To) == nil {
			return nil, fmt.Errorf("wire: edge %d references missing vertex %d or %d", we.ID, we.From, we.To)
		}
		preds, err := toPreds(we.Preds)
		if err != nil {
			return nil, fmt.Errorf("wire: edge %d: %w", we.ID, err)
		}
		dir, err := parseDir(we.Dir)
		if err != nil {
			return nil, fmt.Errorf("wire: edge %d: %w", we.ID, err)
		}
		q.Edge(q.AddEdgeID(we.ID, we.From, we.To, we.Types, preds)).Dirs = dir
		prev = we.ID
	}
	return q, nil
}

func toPreds(wp map[string]Predicate) (map[string]query.Predicate, error) {
	if len(wp) == 0 {
		return nil, nil
	}
	preds := make(map[string]query.Predicate, len(wp))
	for attr, p := range wp {
		if attr == "" {
			return nil, fmt.Errorf("wire: empty attribute name")
		}
		qp, err := p.ToPredicate()
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", attr, err)
		}
		preds[attr] = qp
	}
	return preds, nil
}

func parseDir(s string) (query.Dir, error) {
	switch s {
	case "", "->":
		return query.Forward, nil
	case "<-":
		return query.Backward, nil
	case "--":
		return query.Both, nil
	default:
		return 0, fmt.Errorf("wire: unknown direction %q (want \"->\", \"<-\", or \"--\")", s)
	}
}

// Interval is a cardinality interval; Upper 0 means unbounded above.
type Interval struct {
	Lower int `json:"lower"`
	Upper int `json:"upper,omitempty"`
}

// FromInterval encodes a metrics interval.
func FromInterval(iv metrics.Interval) Interval {
	return Interval{Lower: iv.Lower, Upper: iv.Upper}
}

// ToInterval decodes into a metrics interval.
func (iv Interval) ToInterval() metrics.Interval {
	return metrics.Interval{Lower: iv.Lower, Upper: iv.Upper}
}

// Subgraph is the Chapter 4 subgraph-based explanation: the maximum common
// connected subgraph and the differential (failed) query part.
type Subgraph struct {
	MCS          Query `json:"mcs"`
	Differential Query `json:"differential"`
	Cardinality  int   `json:"cardinality"`
	Satisfied    bool  `json:"satisfied"`
	Traversals   int   `json:"traversals"`
	Path         []int `json:"path,omitempty"`
}

// FromExplanation encodes a subgraph explanation.
func FromExplanation(e *mcs.Explanation) *Subgraph {
	if e == nil {
		return nil
	}
	return &Subgraph{
		MCS:          FromQuery(e.MCS),
		Differential: FromQuery(e.Differential),
		Cardinality:  e.Cardinality,
		Satisfied:    e.Satisfied,
		Traversals:   e.Traversals,
		Path:         e.Path,
	}
}

// Rewriting is a scored modification-based explanation. Ops render the
// modification sequence in the catalog's textual form (Table 3.1).
type Rewriting struct {
	Query               Query    `json:"query"`
	Ops                 []string `json:"ops"`
	Cardinality         int      `json:"cardinality"`
	Syntactic           float64  `json:"syntacticDistance"`
	CardinalityDistance int      `json:"cardinalityDistance"`
	ResultDistance      float64  `json:"resultDistance"`
}

// Report is the full explanation of an unexpected result size: problem
// classification, the subgraph-based explanation, and the ranked
// modification-based explanations with the search's convergence trace.
type Report struct {
	Problem     string      `json:"problem"`
	Cardinality int         `json:"cardinality"`
	Expected    Interval    `json:"expected"`
	FineGrained bool        `json:"fineGrained"`
	Executed    int         `json:"executed"`
	Subgraph    *Subgraph   `json:"subgraph,omitempty"`
	Rewritings  []Rewriting `json:"rewritings,omitempty"`
	Trace       []int       `json:"trace,omitempty"`
	// Degraded marks a brownout answer: the explain ran under a reduced
	// budget with an ε-optimal early stop. Set by the serving layer, never by
	// FromReport, so non-degraded responses are byte-identical with or
	// without the resilience layer.
	Degraded bool `json:"degraded,omitempty"`
	// Partial marks an answer computed without every shard of a partitioned
	// engine (the request allowed it): some counts cover only the surviving
	// shards' vertex ranges. Set by the serving layer, never by FromReport.
	Partial bool `json:"partial,omitempty"`
	// QualityBound is the achieved quality bound of a degraded answer.
	QualityBound *QualityBound `json:"qualityBound,omitempty"`
}

// QualityBound states what a degraded explanation is still worth: the budget
// it ran under, the ε it was allowed to stop at, the executions it actually
// spent, and the best cardinality distance it reached (-1 when the search
// recorded no candidate). A reader holding the bound knows the full-quality
// answer is at most ε closer than BestDistance.
type QualityBound struct {
	Budget       int `json:"budget"`
	Epsilon      int `json:"epsilon"`
	Executed     int `json:"executed"`
	BestDistance int `json:"bestDistance"`
	// Coverage, on a partial answer, maps shard name → reachable: false
	// entries name the vertex ranges the counts do not cover.
	Coverage map[string]bool `json:"coverage,omitempty"`
}

// FromReport encodes an explanation report.
func FromReport(r *core.Report) Report {
	wr := Report{
		Problem:     r.Problem.String(),
		Cardinality: r.Cardinality,
		Expected:    FromInterval(r.Expected),
		FineGrained: r.FineGrained,
		Executed:    r.Executed,
		Subgraph:    FromExplanation(r.Subgraph),
		Trace:       r.Trace,
	}
	for i := range r.Rewritings {
		rw := &r.Rewritings[i]
		ops := make([]string, len(rw.Ops))
		for j, op := range rw.Ops {
			ops[j] = op.String()
		}
		wr.Rewritings = append(wr.Rewritings, Rewriting{
			Query:               FromQuery(rw.Query),
			Ops:                 ops,
			Cardinality:         rw.Cardinality,
			Syntactic:           rw.Syntactic,
			CardinalityDistance: rw.CardinalityDistance,
			ResultDistance:      rw.ResultDistance,
		})
	}
	return wr
}

// Result is one result graph: query identifier → data identifier, with the
// integer query identifiers rendered as JSON object keys.
type Result struct {
	Vertices map[string]int64 `json:"vertices"`
	Edges    map[string]int64 `json:"edges,omitempty"`
}

// FromResult encodes one match result.
func FromResult(r match.Result) Result {
	wr := Result{Vertices: make(map[string]int64, len(r.VertexMap))}
	for q, d := range r.VertexMap {
		wr.Vertices[strconv.Itoa(q)] = int64(d)
	}
	if len(r.EdgeMap) > 0 {
		wr.Edges = make(map[string]int64, len(r.EdgeMap))
		for q, d := range r.EdgeMap {
			wr.Edges[strconv.Itoa(q)] = int64(d)
		}
	}
	return wr
}
