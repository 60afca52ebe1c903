package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mcs"
	"repro/internal/query"
	"repro/internal/wire"
)

// explainSpecSeeds are FuzzExplainSpec's seeds; the decoder's parity table
// and FuzzDecode start from them too.
var explainSpecSeeds = []string{
	`{"dataset":"ldbc","builtin":"LDBC QUERY 2","failing":true,"lower":1}`,
	`{"dataset":"ldbc","builtin":"LDBC QUERY 3","lower":5,"upper":1}`,
	`{"dataset":"ldbc","builtin":"LDBC QUERY 1","fineGrained":true,"allowTopology":true,"budget":-1,"resultSample":5,"maxRewritings":2,"timeoutMs":100}`,
	`{"dataset":"ldbc","query":{"vertices":[{"id":0},{"id":2,"preds":{"age":{"kind":"range","lo":-1.5,"incLo":true}}}],"edges":[{"id":0,"from":2,"to":0,"dir":"--","types":["knows","likes"]},{"id":3,"from":0,"to":0,"dir":"<-"}]},"upper":4}`,
	`{"dataset":"ldbc","builtin":"LDBC QUERY 3"}]garbage`,
	`{"dataset":"ldbc","query":{"vertices":[{"id":2,"preds":{"<a\u2028>":{"kind":"values","values":[{"kind":"string","str":"\u0000&\u2029"},{"kind":"number","num":1e-7}]}}},{"id":10}],"edges":[{"id":1,"from":10,"to":2,"types":["<k>"]}]}}`,
}

// FuzzExplainSpec feeds request bodies through the spec half of the explain
// pipeline — decodeBody (internal/wire's one-pass decoder, or encoding/json
// for what it declines), then validateExplain — on a small LDBC server. No
// input may panic; validation answers either a prepared explain or a
// failure coded invalid_spec or bound_violation; the query of an accepted
// spec keeps its canonical key through wire.FromQuery and ToQuery; and the
// answer encoder renders it as encoding/json renders wire.FromQuery —
// request bodies are where odd UTF-8, `<` and U+2028 reach the encoder
// from. Nothing is executed, so an input costs what admission would. That
// the two decoders agree is FuzzDecode's property.
//
// The committed corpus (testdata/fuzz/FuzzExplainSpec) holds the query of
// TestToQueryHugeGapIsCheap, whose identifier gap once cost seconds to
// decode, a disjunction that repeats a value, LDBC QUERY 3 with a 20 001-
// integer age range, and two bodies the strict decoder refuses: one carrying
// allowPartial, one carrying workers. The seeds add a body with a stray `]`
// and garbage after the spec, which the decoder must refuse too.
func FuzzExplainSpec(f *testing.F) {
	for _, seed := range explainSpecSeeds {
		f.Add([]byte(seed))
	}
	s := smallLDBCServer(1)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.ExplainRequest
		r := httptest.NewRequest("POST", "/v1/explain", bytes.NewReader(body))
		if _, err := decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return // answered 400/413 invalid_spec by every handler
		}
		if bytes.HasSuffix(bytes.TrimSpace(body), []byte("garbage")) {
			t.Fatalf("%s: the strict decoder accepted trailing data", body)
		}
		prep, fail := s.validateExplain(req, faultinject.Decision{})
		if fail != nil {
			if c := fail.err.Code; c != wire.CodeInvalidSpec && c != wire.CodeBoundViolation {
				t.Fatalf("%s: failure coded %q: %s", body, c, fail.err.Message)
			}
			return
		}
		back, err := wire.FromQuery(prep.q).ToQuery()
		if err != nil {
			t.Fatalf("%s: accepted query does not decode from its own encoding: %v", body, err)
		}
		if back.Key() != prep.q.Key() {
			t.Fatalf("%s: the wire round trip changed the query:\n%s\n%s", body, prep.q, back)
		}
		// The encoder renders queries only inside reports: hold a report
		// whose subgraph and rewriting carry the query to its reference.
		rep := &core.Report{
			Subgraph:   &mcs.Explanation{MCS: prep.q, Differential: query.New()},
			Rewritings: []core.Rewriting{{Query: prep.q}},
		}
		got, err := wire.AppendReport(nil, rep, nil)
		if err != nil {
			t.Fatalf("%s: AppendReport: %v", body, err)
		}
		want, err := json.Marshal(wire.FromReport(rep))
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", body, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the encoder renders the query\n%s\nencoding/json renders it\n%s", body, got, want)
		}
	})
}
