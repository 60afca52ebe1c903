package server

// Table-driven coverage of the unified v1 envelope: every endpoint, success
// and every pre-execution error path, must answer {requestId, data|error}
// with the documented status and error code, echo X-Request-Id, and honor a
// well-formed client-supplied request id.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/resilience"
	"repro/internal/wire"
)

func TestEnvelopeOnEveryEndpoint(t *testing.T) {
	explainBody := wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1, Budget: 50}
	matchBody := wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3"}
	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		shedding bool
		want     int
		wantCode wire.ErrorCode // "" = success envelope
	}{
		{name: "datasets ok", method: "GET", path: "/v1/datasets", want: http.StatusOK},
		{name: "stats ok", method: "GET", path: "/v1/stats", want: http.StatusOK},
		{name: "explain ok", method: "POST", path: "/v1/explain", body: explainBody, want: http.StatusOK},
		{name: "match ok", method: "POST", path: "/v1/match", body: matchBody, want: http.StatusOK},

		{name: "explain malformed", method: "POST", path: "/v1/explain", body: []byte(`{"dataset":`), want: http.StatusBadRequest, wantCode: wire.CodeInvalidSpec},
		{name: "match malformed", method: "POST", path: "/v1/match", body: []byte(`{"dataset":`), want: http.StatusBadRequest, wantCode: wire.CodeInvalidSpec},
		{name: "stream malformed", method: "POST", path: "/v1/explain/stream", body: []byte(`{"dataset":`), want: http.StatusBadRequest, wantCode: wire.CodeInvalidSpec},
		// The decoder is strict: a field no request type has is malformed.
		{name: "explain allowPartial", method: "POST", path: "/v1/explain", body: []byte(`{"dataset":"ldbc","builtin":"LDBC QUERY 2","failing":true,"lower":1,"allowPartial":true}`), want: http.StatusBadRequest, wantCode: wire.CodeInvalidSpec},

		{name: "explain unknown dataset", method: "POST", path: "/v1/explain", body: wire.ExplainRequest{Dataset: "imdb", Builtin: "Q"}, want: http.StatusNotFound, wantCode: wire.CodeInvalidSpec},
		{name: "match unknown builtin", method: "POST", path: "/v1/match", body: wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 9"}, want: http.StatusNotFound, wantCode: wire.CodeInvalidSpec},
		{name: "stream unknown dataset", method: "POST", path: "/v1/explain/stream", body: wire.ExplainRequest{Dataset: "imdb", Builtin: "Q"}, want: http.StatusNotFound, wantCode: wire.CodeInvalidSpec},

		{name: "explain bound violation", method: "POST", path: "/v1/explain", body: wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Lower: 10, Upper: 5}, want: http.StatusBadRequest, wantCode: wire.CodeBoundViolation},
		{name: "stream bound violation", method: "POST", path: "/v1/explain/stream", body: wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Budget: -1}, want: http.StatusBadRequest, wantCode: wire.CodeBoundViolation},

		{name: "explain shed", method: "POST", path: "/v1/explain", body: explainBody, shedding: true, want: http.StatusTooManyRequests, wantCode: wire.CodeShed},
		{name: "match shed", method: "POST", path: "/v1/match", body: matchBody, shedding: true, want: http.StatusTooManyRequests, wantCode: wire.CodeShed},
		{name: "stream shed", method: "POST", path: "/v1/explain/stream", body: explainBody, shedding: true, want: http.StatusTooManyRequests, wantCode: wire.CodeShed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			if tc.shedding {
				s.Resilience().ForceState(resilience.Shedding)
			}
			rec := do(t, s.Handler(), tc.method, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			if tc.wantCode == "" {
				envelope(t, rec) // asserts data/error exclusivity + id echo
				return
			}
			er := decodeError(t, rec)
			if er.Code != tc.wantCode {
				t.Fatalf("error code = %q, want %q: %s", er.Code, tc.wantCode, rec.Body)
			}
			if er.Message == "" {
				t.Fatalf("error missing message: %s", rec.Body)
			}
			if er.Retryable && er.Code != wire.CodeShed && er.Code != wire.CodeDraining {
				t.Fatalf("unexpected retryable error: %s", rec.Body)
			}
		})
	}
	if rec := do(t, newTestServer(t, Config{}).Handler(), "POST", "/v1/internal/count", []byte(`{}`)); rec.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/internal/count answered %d, want 404: the daemon serves no count RPC", rec.Code)
	}
}

// TestClientRequestIDEcho: a well-formed X-Request-Id is adopted verbatim; a
// hostile one (header-breaking bytes) is replaced by a generated id.
func TestClientRequestIDEcho(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	req := httptest.NewRequest("GET", "/v1/datasets", nil)
	req.Header.Set("X-Request-Id", "trace-abc.123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if env := envelope(t, rec); env.RequestID != "trace-abc.123" {
		t.Fatalf("client request id not adopted: %q", env.RequestID)
	}

	req = httptest.NewRequest("GET", "/v1/datasets", nil)
	req.Header.Set("X-Request-Id", "evil id\x00")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if env := envelope(t, rec); env.RequestID == "" || env.RequestID == "evil id\x00" {
		t.Fatalf("hostile request id not replaced: %q", env.RequestID)
	}
}
