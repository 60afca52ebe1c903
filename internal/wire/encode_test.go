package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

// marshalReport is the reference rendering of AppendReport: the wire Report
// through encoding/json, stamped as the serving layer stamped it.
func marshalReport(t *testing.T, rep *core.Report, qb *QualityBound) []byte {
	t.Helper()
	wr := FromReport(rep)
	if qb != nil {
		wr.Degraded, wr.QualityBound = true, qb
	}
	want, err := json.Marshal(&wr)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return want
}

// TestAppendReportDifferential holds AppendReport to json.Marshal(FromReport)
// over engine output: every LDBC and DBpedia built-in and its failing
// variant, under five expected intervals and all three fineGrained choices,
// each rendered plain and degraded. The corpus spans why-empty, why-so-few,
// why-so-many and satisfied reports, both rewriting engines, subgraph
// explanations with empty differentials, and rewritten queries with
// identifier gaps.
func TestAppendReportDifferential(t *testing.T) {
	lcfg := datagen.DefaultLDBC().Scaled(0.25)
	dcfg := datagen.DBpediaConfig{Seed: 7, Entities: 700, EdgesPer: 4}
	type dataset struct {
		eng      *core.Engine
		builtins []workload.Named
		failing  func(string) (*query.Query, error)
	}
	sets := []dataset{
		{core.NewEngine(datagen.LDBC(lcfg)), workload.LDBCQueries(), workload.FailingVariant},
		{core.NewEngine(datagen.DBpedia(dcfg)), workload.DBpediaQueries(), workload.DBpediaFailingVariant},
	}
	intervals := []metrics.Interval{{Lower: 0, Upper: 0}, {Lower: 1, Upper: 0}, {Lower: 1, Upper: 5}, {Lower: 2, Upper: 3}, {Lower: 100, Upper: 200}}
	fine, coarse := true, false
	problems := map[string]int{}
	reports := 0
	for _, ds := range sets {
		for _, b := range ds.builtins {
			fq, err := ds.failing(b.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []*query.Query{b.Build(), fq} {
				for _, iv := range intervals {
					for _, fg := range []*bool{nil, &coarse, &fine} {
						rep, err := ds.eng.Explain(q, core.Options{Expected: iv, FineGrained: fg, Budget: 150})
						if err != nil {
							t.Fatalf("%s %v: %v", b.Name, iv, err)
						}
						problems[rep.Problem.String()]++
						reports++
						qb := &QualityBound{Budget: 90, Epsilon: 1, Executed: rep.Executed, BestDistance: -1}
						for _, bound := range []*QualityBound{nil, qb} {
							got, err := AppendReport(nil, rep, bound)
							if err != nil {
								t.Fatalf("%s %v: AppendReport: %v", b.Name, iv, err)
							}
							if want := marshalReport(t, rep, bound); !bytes.Equal(got, want) {
								t.Fatalf("%s %v fineGrained=%v degraded=%t:\nappend  %s\nmarshal %s", b.Name, iv, fg, bound != nil, got, want)
							}
						}
					}
				}
			}
		}
	}
	if reports != 240 {
		t.Fatalf("%d reports, want 240", reports)
	}
	if len(problems) != 4 {
		t.Fatalf("the corpus covers problems %v, want all four kinds", problems)
	}
}

// TestAppendReportEdgeCases covers what engine output on the built-in
// graphs does not: hostile strings in attribute names, values, types and
// ops, float formats at the 'e' cutoffs, negative zero, number, bool and
// string values, more attributes than the sort's stack array holds, an
// empty query, and a NaN distance, which fails as encoding/json fails.
func TestAppendReportEdgeCases(t *testing.T) {
	odd := "a<b>&c\"d\\e\x00\x1f\x7f\b\f\n\r\t \u2028\u2029\xff\xc3é日"
	q := query.New()
	preds := map[string]query.Predicate{
		odd:    query.In(graph.S(odd), graph.S(""), graph.N(0), graph.N(math.Copysign(0, -1)), graph.N(1e-7), graph.N(1e21), graph.N(-123.456), graph.B(true), graph.B(false)),
		"r":    {Kind: query.Range, Lo: 1e-6, Hi: 9.99e20, IncLo: true},
		"r2":   {Kind: query.Range, Lo: math.Inf(-1), Hi: 0, IncHi: true},
		"r3":   {Kind: query.Range, Lo: -5e-324, Hi: math.Inf(1)},
		"10":   query.EqS("x"),
		"2":    query.EqS("y"),
		"B":    query.EqS("z"),
		"a":    query.EqS("w"),
		"é":    query.EqS("v"),
		"<":    query.EqS("u"),
		"\x00": query.EqS("t"),
	}
	q.AddVertexID(2, preds)
	q.AddVertexID(10, nil)
	e := q.AddEdgeID(3, 10, 2, []string{"zz", odd, "aa"}, map[string]query.Predicate{"since": query.AtLeast(2011)})
	q.Edge(e).Dirs = query.Both
	q.AddEdgeID(7, 2, 2, nil, nil)
	rep := &core.Report{
		Problem:     metrics.WhySoMany,
		Cardinality: 12,
		Expected:    metrics.Interval{Lower: 0, Upper: 3},
		Subgraph:    &mcs.Explanation{MCS: q, Differential: query.New(), Satisfied: true, Path: []int{3, 7}},
		Rewritings: []core.Rewriting{
			{Query: q, Ops: []query.Op{query.AddType{Edge: 3, Type: odd}, query.DeletePredicate{On: query.Target{Kind: query.TargetVertex, ID: 2, Attr: odd}}}, Syntactic: 1e-9, ResultDistance: 1},
			{Query: query.New(), Ops: nil, Cardinality: -1, CardinalityDistance: 7, Syntactic: 123456789012345678901234.5},
		},
		FineGrained: true,
		Executed:    9,
		Trace:       []int{5, 3, 0},
	}
	for _, qb := range []*QualityBound{nil, {Budget: 1, Epsilon: 0, Executed: 0, BestDistance: -1}} {
		got, err := AppendReport([]byte("prefix"), rep, qb)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte("prefix"), marshalReport(t, rep, qb)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded=%t:\nappend  %s\nmarshal %s", qb != nil, got, want)
		}
	}
	for _, nan := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := *rep
		bad.Rewritings = []core.Rewriting{{Query: q, ResultDistance: nan}}
		_, want := json.Marshal(FromReport(&bad))
		if _, err := AppendReport(nil, &bad, nil); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("distance %v: AppendReport error %v, json.Marshal error %v", nan, err, want)
		}
	}
}

// TestAppendMatch holds AppendMatch to json.Marshal(MatchResponse) in count
// mode, for an empty find and for find results whose query identifiers sort
// differently as numbers and as strings (10 before 2), with identifier gaps.
func TestAppendMatch(t *testing.T) {
	m := core.NewEngine(datagen.LDBC(datagen.DefaultLDBC().Scaled(0.25))).Matcher()
	person := map[string]query.Predicate{"type": query.EqS("person")}
	q := query.New()
	q.AddVertexID(2, person)
	q.AddVertexID(10, person)
	q.AddVertexID(11, map[string]query.Predicate{"type": query.EqS("city")})
	q.AddEdgeID(1, 2, 10, []string{"knows"}, nil)
	q.AddEdgeID(10, 2, 11, []string{"livesIn"}, nil)
	vertexOnly := query.New()
	vertexOnly.AddVertexID(9, person)
	vertexOnly.AddVertexID(100, person)
	failing, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
	}{{"gaps", q}, {"vertices only", vertexOnly}, {"empty", failing}, {"builtin", workload.LDBCQuery3()}} {
		var rows match.Rows
		if err := m.FindSorted(context.Background(), tc.q, match.Options{Limit: 40}, &rows); err != nil {
			t.Fatal(err)
		}
		resp := MatchResponse{Count: rows.Len()}
		for _, r := range rows.Results() {
			resp.Results = append(resp.Results, FromResult(r))
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendMatch(nil, rows.Len(), &rows); !bytes.Equal(got, want) {
			t.Fatalf("%s find:\nappend  %s\nmarshal %s", tc.name, got, want)
		}
		if tc.name == "gaps" && (rows.Len() == 0 || !bytes.Contains(want, []byte(`{"10":`))) {
			t.Fatalf("the gaps query must find results keyed 10 before 2: %s", want)
		}
	}
	want, _ := json.Marshal(MatchResponse{Count: 1234})
	if got := AppendMatch(nil, 1234, nil); !bytes.Equal(got, want) {
		t.Fatalf("count mode:\nappend  %s\nmarshal %s", got, want)
	}
}

// TestAppendEnvelope holds AppendEnvelope to the writer it replaced: the
// marshaled Envelope plus a newline.
func TestAppendEnvelope(t *testing.T) {
	data := []byte(`{"count":3,"results":[{"vertices":{"0":1}}]}`)
	for _, id := range []string{"", "00000001", "client-id_1.2", `odd"<id>`} {
		blob, err := json.Marshal(Envelope{RequestID: id, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want := append(blob, '\n')
		if got := AppendEnvelope(nil, id, data); !bytes.Equal(got, want) {
			t.Fatalf("id %q:\nappend  %s\nmarshal %s", id, got, want)
		}
	}
}

// FuzzWireEncode holds the encoder's primitives to encoding/json: any string
// renders as json.Marshal renders it, and any float64 too, NaN and ±Inf
// failing with the same error.
func FuzzWireEncode(f *testing.F) {
	f.Add("", 0.0)
	f.Add("plain", 1.0)
	f.Add("<script>&amp;</script>", 1e-7)
	f.Add("\u2028\u2029\x00\x1f\x7f\b\f\n\r\t\"\\", 1e21)
	f.Add("\xff\xfe\xc3(\xe2\x82", math.NaN())
	f.Add(strings.Repeat("日本", 3), math.Inf(-1))
	f.Add("é", 123456.789e-12)
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q:\nappend  %s\nmarshal %s", s, got, want)
		}
		want, werr := json.Marshal(x)
		got, gerr := appendFloat(nil, x)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("float %v: append error %v, marshal error %v", x, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("float %v:\nappend  %s\nmarshal %s", x, got, want)
		}
	})
}
