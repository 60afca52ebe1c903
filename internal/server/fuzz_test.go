package server

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// FuzzExplainSpec feeds request bodies through the spec half of the explain
// pipeline — the strict decode of decodeBody, then validateExplain — on a
// small LDBC server. No input may panic; validation answers either a prepared
// explain or a failure coded invalid_spec or bound_violation; and the query
// of an accepted spec keeps its canonical key through wire.FromQuery and
// ToQuery. Nothing is executed, so an input costs what admission would.
//
// The committed corpus (testdata/fuzz/FuzzExplainSpec) holds the query of
// TestToQueryHugeGapIsCheap, whose identifier gap once cost seconds to
// decode, a disjunction that repeats a value, LDBC QUERY 3 with a 20 001-
// integer age range, and a body carrying allowPartial, which the strict
// decoder refuses.
func FuzzExplainSpec(f *testing.F) {
	f.Add([]byte(`{"dataset":"ldbc","builtin":"LDBC QUERY 2","failing":true,"lower":1}`))
	f.Add([]byte(`{"dataset":"ldbc","builtin":"LDBC QUERY 3","lower":5,"upper":1}`))
	f.Add([]byte(`{"dataset":"ldbc","builtin":"LDBC QUERY 1","fineGrained":true,"allowTopology":true,"budget":-1,"resultSample":5,"maxRewritings":2,"workers":1,"timeoutMs":100}`))
	f.Add([]byte(`{"dataset":"ldbc","query":{"vertices":[{"id":0},{"id":2,"preds":{"age":{"kind":"range","lo":-1.5,"incLo":true}}}],"edges":[{"id":0,"from":2,"to":0,"dir":"--","types":["knows","likes"]},{"id":3,"from":0,"to":0,"dir":"<-"}]},"upper":4}`))
	s := smallLDBCServer(1)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.ExplainRequest
		r := httptest.NewRequest("POST", "/v1/explain", bytes.NewReader(body))
		if _, err := decodeBody(httptest.NewRecorder(), r, &req); err != nil {
			return // answered 400/413 invalid_spec by every handler
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
	})
}
