package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Shared test engines: built once, reused across every test. Tests that must
// not see warmed matcher caches use dedicated queries instead of dedicated
// engines (the caches key on canonical query forms, so a novel query never
// hits them).
var (
	enginesOnce sync.Once
	ldbcEng     *core.Engine
	dbpEng      *core.Engine
)

func engines(t *testing.T) (*core.Engine, *core.Engine) {
	t.Helper()
	enginesOnce.Do(func() {
		ldbcEng = core.NewEngine(datagen.LDBC(datagen.DefaultLDBC().Scaled(0.25)))
		ldbcEng.SetWorkers(4)
		dbpEng = core.NewEngine(datagen.DBpedia(datagen.DBpediaConfig{Seed: 7, Entities: 700, EdgesPer: 4}))
		dbpEng.SetWorkers(2)
	})
	return ldbcEng, dbpEng
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	le, de := engines(t)
	s := New(cfg)
	s.AddDataset("ldbc", le, workload.LDBCQueries(), workload.FailingVariant)
	s.AddDataset("dbpedia", de, workload.DBpediaQueries(), workload.DBpediaFailingVariant)
	return s
}

// do runs one request against the handler and returns the recorder.
func do(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
	return v
}

// envelope decodes the body's v1 envelope and checks the transport
// invariants every v1 response must hold: a non-empty requestId echoed in
// the X-Request-Id header, and exactly one of data or error.
func envelope(t testing.TB, rec *httptest.ResponseRecorder) wire.Envelope {
	t.Helper()
	var env wire.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decoding envelope %q: %v", rec.Body.String(), err)
	}
	if env.RequestID == "" {
		t.Fatalf("envelope missing requestId: %s", rec.Body)
	}
	if hdr := rec.Header().Get("X-Request-Id"); hdr != env.RequestID {
		t.Fatalf("X-Request-Id header %q != envelope requestId %q", hdr, env.RequestID)
	}
	if (env.Data == nil) == (env.Error == nil) {
		t.Fatalf("envelope must carry exactly one of data/error: %s", rec.Body)
	}
	return env
}

// decodeData unwraps the envelope's data field of a success response.
func decodeData[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	env := envelope(t, rec)
	if env.Error != nil {
		t.Fatalf("want data envelope, got error: %s", rec.Body)
	}
	var v T
	if err := json.Unmarshal(env.Data, &v); err != nil {
		t.Fatalf("decoding envelope data %q: %v", env.Data, err)
	}
	return v
}

// decodeError unwraps the envelope's structured error of a failure response.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder) wire.Error {
	t.Helper()
	env := envelope(t, rec)
	if env.Error == nil {
		t.Fatalf("want error envelope, got: %s", rec.Body)
	}
	return *env.Error
}

// dataBytes returns the raw data bytes of a success envelope — the payload
// the differential tests compare byte-for-byte against direct engine calls.
func dataBytes(t testing.TB, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	env := envelope(t, rec)
	if env.Error != nil {
		t.Fatalf("want data envelope, got error: %s", rec.Body)
	}
	return []byte(env.Data)
}

func TestHealthz(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := do(t, h, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	hr := decode[wire.HealthResponse](t, rec)
	if hr.Status != "ok" || hr.Datasets != 2 {
		t.Fatalf("unexpected health response: %+v", hr)
	}
}

func TestDatasets(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := do(t, h, "GET", "/v1/datasets", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	infos := decodeData[[]wire.DatasetInfo](t, rec)
	if len(infos) != 2 || infos[0].Name != "dbpedia" || infos[1].Name != "ldbc" {
		t.Fatalf("want sorted [dbpedia ldbc], got %+v", infos)
	}
	for _, info := range infos {
		if info.Vertices == 0 || info.Edges == 0 || len(info.Builtins) != 4 {
			t.Fatalf("incomplete dataset info: %+v", info)
		}
		if info.AdmitCap != info.Workers {
			t.Fatalf("admission cap %d not sized off workers %d", info.AdmitCap, info.Workers)
		}
	}
}

func TestExplainBuiltinFailing(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	rep := decodeData[wire.Report](t, rec)
	if rep.Problem != "why-empty" {
		t.Fatalf("want why-empty, got %q", rep.Problem)
	}
	if rep.Subgraph == nil || len(rep.Subgraph.MCS.Vertices) == 0 {
		t.Fatalf("missing subgraph explanation: %+v", rep.Subgraph)
	}
	if len(rep.Rewritings) == 0 || len(rep.Rewritings) > 3 {
		t.Fatalf("want 1..3 rewritings, got %d", len(rep.Rewritings))
	}
	if rep.Executed == 0 || len(rep.Trace) == 0 {
		t.Fatalf("missing search trace: executed=%d trace=%d", rep.Executed, len(rep.Trace))
	}
	if rep.FineGrained {
		t.Fatal("why-empty should default to the coarse-grained engine")
	}
	for _, rw := range rep.Rewritings {
		if rw.Cardinality < 1 || len(rw.Ops) == 0 {
			t.Fatalf("rewriting did not solve the why-empty problem: %+v", rw)
		}
	}
}

func TestExplainCustomQuery(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc",
		Query: &wire.Query{
			Vertices: []wire.Vertex{
				{ID: 0, Preds: map[string]wire.Predicate{
					"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}},
				}},
				{ID: 1, Preds: map[string]wire.Predicate{
					"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "city"}}},
					"name": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "Nowhere"}}},
				}},
			},
			Edges: []wire.Edge{{ID: 0, From: 0, To: 1, Types: []string{"livesIn"}}},
		},
		Lower: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	rep := decodeData[wire.Report](t, rec)
	if rep.Problem != "why-empty" || rep.Cardinality != 0 {
		t.Fatalf("want why-empty/0, got %q/%d", rep.Problem, rep.Cardinality)
	}
}

func TestExplainSatisfiedAndWhySoMany(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	if rep := decodeData[wire.Report](t, rec); rep.Problem != "satisfied" || rep.Subgraph != nil {
		t.Fatalf("want a bare satisfied report, got %+v", rep)
	}
	rec = do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1, Upper: 5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	rep := decodeData[wire.Report](t, rec)
	if rep.Problem != "why-so-many" || !rep.FineGrained {
		t.Fatalf("want fine-grained why-so-many, got %+v", rep)
	}
}

func TestExplainBadRequests(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	goodQuery := &wire.Query{Vertices: []wire.Vertex{{ID: 0}}}
	cases := []struct {
		name string
		body any
		want int
	}{
		{"malformed json", []byte(`{"dataset": "ldbc",`), http.StatusBadRequest},
		{"unknown field", []byte(`{"dataset":"ldbc","nope":1}`), http.StatusBadRequest},
		{"unknown dataset", wire.ExplainRequest{Dataset: "imdb", Builtin: "LDBC QUERY 2"}, http.StatusNotFound},
		{"unknown builtin", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 9"}, http.StatusNotFound},
		{"no query spec", wire.ExplainRequest{Dataset: "ldbc"}, http.StatusBadRequest},
		{"builtin and query", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Query: goodQuery}, http.StatusBadRequest},
		{"failing custom query", wire.ExplainRequest{Dataset: "ldbc", Query: goodQuery, Failing: true}, http.StatusBadRequest},
		{"negative lower", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Lower: -1}, http.StatusBadRequest},
		{"upper below lower", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Lower: 10, Upper: 5}, http.StatusBadRequest},
		{"negative budget", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Budget: -1}, http.StatusBadRequest},
		{"bad query spec", wire.ExplainRequest{Dataset: "ldbc", Query: &wire.Query{
			Vertices: []wire.Vertex{{ID: 0}},
			Edges:    []wire.Edge{{ID: 0, From: 0, To: 3}},
		}}, http.StatusBadRequest},
		{"method not allowed", nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := "POST"
			if tc.name == "method not allowed" {
				method = "GET"
			}
			rec := do(t, h, method, "/v1/explain", tc.body)
			if rec.Code != tc.want {
				t.Fatalf("want %d, got %d: %s", tc.want, rec.Code, rec.Body)
			}
			if tc.want != http.StatusMethodNotAllowed {
				er := decodeError(t, rec)
				if er.Message == "" || er.Code == "" {
					t.Fatalf("error body missing code or message: %s", rec.Body)
				}
				if er.Code != wire.CodeInvalidSpec && er.Code != wire.CodeBoundViolation {
					t.Fatalf("bad request mapped to %q: %s", er.Code, rec.Body)
				}
			}
		})
	}
}

func TestMatchCountAndFind(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	le, _ := engines(t)
	for _, nq := range workload.LDBCQueries() {
		rec := do(t, h, "POST", "/v1/match", wire.MatchRequest{Dataset: "ldbc", Builtin: nq.Name})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: got %d: %s", nq.Name, rec.Code, rec.Body)
		}
		resp := decodeData[wire.MatchResponse](t, rec)
		if want := le.Matcher().Count(nq.Build(), 0); resp.Count != want {
			t.Fatalf("%s: server count %d, direct count %d", nq.Name, resp.Count, want)
		}
	}
	// Find mode is compared as the bytes sent: query ids 2 and 10 order
	// "10" before "2", as encoding/json orders the keys of a result map.
	person := map[string]wire.Predicate{"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}}}
	gaps := &wire.Query{
		Vertices: []wire.Vertex{{ID: 2, Preds: person}, {ID: 10, Preds: person}},
		Edges:    []wire.Edge{{ID: 4, From: 2, To: 10, Types: []string{"knows"}}},
	}
	gapsQuery, err := gaps.ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req wire.MatchRequest
		q   *query.Query
	}{
		{wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Mode: "find", Limit: 5}, workload.LDBCQuery3()},
		{wire.MatchRequest{Dataset: "ldbc", Query: gaps, Mode: "find", Limit: 7}, gapsQuery},
	} {
		rec := do(t, h, "POST", "/v1/match", tc.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("find: got %d: %s", rec.Code, rec.Body)
		}
		direct := le.Matcher().Find(tc.q, match.Options{Limit: tc.req.Limit})
		match.SortResults(direct)
		if len(direct) != tc.req.Limit {
			t.Fatalf("find %v: %d direct results, want the limit %d", tc.req, len(direct), tc.req.Limit)
		}
		want := wire.MatchResponse{Count: len(direct)}
		for _, res := range direct {
			want.Results = append(want.Results, wire.FromResult(res))
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := dataBytes(t, rec); !bytes.Equal(got, wantBytes) {
			t.Fatalf("find %v differs:\nserver %s\ndirect %s", tc.req, got, wantBytes)
		}
		if tc.req.Query != nil && !bytes.Contains(wantBytes, []byte(`"vertices":{"10":`)) {
			t.Fatalf("the custom query must key its results 10 before 2: %s", wantBytes)
		}
	}
	if rec := do(t, h, "POST", "/v1/match", wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Mode: "scan"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad mode accepted: %d", rec.Code)
	}
}

// TestMatchRepeatedValue: a value named twice in a request's predicate is
// named once as far as the answer goes (a predicate interval is a set).
func TestMatchRepeatedValue(t *testing.T) {
	g := graph.New(3, 0)
	g.AddVertex(graph.Attrs{"type": graph.S("person")})
	g.AddVertex(graph.Attrs{"type": graph.S("person")})
	g.AddVertex(graph.Attrs{"type": graph.S("city")})
	g.BuildVertexIndex("type")
	s := New(Config{})
	s.AddDataset("tiny", core.NewEngine(g), nil, nil)
	body := []byte(`{"dataset":"tiny","query":{"vertices":[{"id":0,"preds":{"type":{"kind":"values","values":[
		{"kind":"string","str":"person"},{"kind":"string","str":"city"},{"kind":"string","str":"person"}]}}}]}}`)
	rec := do(t, s.Handler(), "POST", "/v1/match", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	if resp := decodeData[wire.MatchResponse](t, rec); resp.Count != 3 {
		t.Fatalf("type ∈ {person, city, person} counts %d over 2 persons and 1 city, want 3", resp.Count)
	}
}

// TestExplainDifferential proves the HTTP path returns byte-for-byte what a
// direct core.Engine.Explain call encodes — the service layer adds transport,
// not semantics.
func TestExplainDifferential(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	le, de := engines(t)
	cases := []struct {
		dataset string
		eng     *core.Engine
		req     wire.ExplainRequest
	}{
		{"ldbc", le, wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1}},
		{"ldbc", le, wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1, Upper: 5, Budget: 120}},
		{"dbpedia", de, wire.ExplainRequest{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 1", Failing: true, Lower: 1, AllowTopology: true}},
	}
	for _, tc := range cases {
		rec := do(t, h, "POST", "/v1/explain", tc.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: got %d: %s", tc.req, rec.Code, rec.Body)
		}
		var q *query.Query
		var err error
		if tc.req.Failing {
			if tc.dataset == "ldbc" {
				q, err = workload.FailingVariant(tc.req.Builtin)
			} else {
				q, err = workload.DBpediaFailingVariant(tc.req.Builtin)
			}
			if err != nil {
				t.Fatal(err)
			}
		} else {
			for _, nq := range workload.LDBCQueries() {
				if nq.Name == tc.req.Builtin {
					q = nq.Build()
				}
			}
		}
		rep, err := tc.eng.Explain(q, core.Options{
			Expected:      metrics.Interval{Lower: tc.req.Lower, Upper: tc.req.Upper},
			AllowTopology: tc.req.AllowTopology,
			Budget:        tc.req.Budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wire.FromReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		if got := dataBytes(t, rec); !bytes.Equal(want, got) {
			t.Fatalf("%s %s: server response differs from direct Explain:\nserver %s\ndirect %s",
				tc.dataset, tc.req.Builtin, got, want)
		}
	}
}

// slowExplain is an explain request whose full search would take far longer
// than any test: a unique custom query (so no cross-test cache warming), an
// unreachable goal, fine-grained search, and a multi-million budget.
func slowExplain(dataset string) wire.ExplainRequest {
	fine := true
	return wire.ExplainRequest{
		Dataset: dataset,
		Query: &wire.Query{
			Vertices: []wire.Vertex{
				{ID: 0, Preds: map[string]wire.Predicate{
					"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}},
					"age":  {Kind: "range", Lo: f64(21), Hi: f64(64)},
				}},
				{ID: 1, Preds: map[string]wire.Predicate{
					"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}},
				}},
				{ID: 2, Preds: map[string]wire.Predicate{
					"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "tag"}}},
				}},
			},
			Edges: []wire.Edge{
				{ID: 0, From: 0, To: 1, Types: []string{"knows"}},
				{ID: 1, From: 1, To: 2, Types: []string{"hasInterest"}},
			},
		},
		Lower:         1000000000, // unreachable: the search can never satisfy it
		FineGrained:   &fine,
		AllowTopology: true,
		Budget:        5000000,
	}
}

func f64(f float64) *float64 { return &f }

// TestExplainCancellation cancels a request mid-explain and checks the
// handler returns promptly with 499 — the search stopped instead of running
// its multi-million-candidate budget out.
func TestExplainCancellation(t *testing.T) {
	s := newTestServer(t, Config{MaxBudget: 10000000, DefaultTimeout: 5 * time.Minute, MaxTimeout: 10 * time.Minute})
	h := s.Handler()
	blob, err := json.Marshal(slowExplain("ldbc"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/explain", bytes.NewReader(blob)).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("want 499 after client cancel, got %d: %s", rec.Code, rec.Body)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("handler took %v to notice the cancellation", elapsed)
	}
}

// TestExplainDeadline lets the per-request timeout fire instead of the
// client: the response must be 504 and arrive promptly.
func TestExplainDeadline(t *testing.T) {
	s := newTestServer(t, Config{MaxBudget: 10000000})
	h := s.Handler()
	req := slowExplain("ldbc")
	req.TimeoutMs = 60
	start := time.Now()
	rec := do(t, h, "POST", "/v1/explain", req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("want 504 after deadline, got %d: %s", rec.Code, rec.Body)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("handler took %v to notice the deadline", elapsed)
	}
}

// TestExplainCtxPreCancelled checks the engine-level contract directly: a
// cancelled context aborts before any search work.
func TestExplainCtxPreCancelled(t *testing.T) {
	le, _ := engines(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := le.ExplainCtx(ctx, q, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestConcurrentExplain hammers both engines from many goroutines; run with
// -race this certifies the pooled explain state, the admission semaphore,
// and the shared caches.
func TestConcurrentExplain(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	reqs := []wire.ExplainRequest{
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 60},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1, Budget: 60},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1, Upper: 5, Budget: 60},
		{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 1", Failing: true, Lower: 1, Budget: 60},
		{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 4", Failing: true, Lower: 1, Budget: 60},
	}
	const workers = 8
	const perWorker = 5
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	baselines := make([]string, len(reqs))
	for i, req := range reqs {
		rec := do(t, h, "POST", "/v1/explain", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("baseline %d: got %d: %s", i, rec.Code, rec.Body)
		}
		// Compare envelope data, not whole bodies: the requestId differs per
		// request by design.
		baselines[i] = string(dataBytes(t, rec))
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ri := (w + i) % len(reqs)
				rec := do(t, h, "POST", "/v1/explain", reqs[ri])
				if rec.Code != http.StatusOK {
					errCh <- fmt.Errorf("worker %d req %d: got %d: %s", w, ri, rec.Code, rec.Body)
					return
				}
				var env wire.Envelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					errCh <- fmt.Errorf("worker %d req %d: decoding envelope: %v", w, ri, err)
					return
				}
				if string(env.Data) != baselines[ri] {
					errCh <- fmt.Errorf("worker %d req %d: concurrent response diverged from baseline", w, ri)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	// Generate some traffic first so the counters move.
	do(t, h, "POST", "/v1/match", wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3"})
	do(t, h, "POST", "/v1/explain", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1, Budget: 50})
	rec := do(t, h, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	stats := decodeData[wire.StatsResponse](t, rec)
	if stats.Requests.Total < 3 || stats.Requests.Explain < 1 || stats.Requests.Match < 1 {
		t.Fatalf("request counters did not move: %+v", stats.Requests)
	}
	ld, ok := stats.Datasets["ldbc"]
	if !ok {
		t.Fatalf("missing ldbc dataset stats: %+v", stats.Datasets)
	}
	if ld.Workers != 4 || ld.AdmitCap != 4 {
		t.Fatalf("worker config not reported: %+v", ld)
	}
	for name, cs := range map[string]wire.CacheStats{"count": ld.CountCache, "cand": ld.CandCache} {
		if cs.Hits+cs.Misses == 0 {
			t.Fatalf("%s cache counters did not move: %+v", name, cs)
		}
		if cs.HitRate < 0 || cs.HitRate > 1 {
			t.Fatalf("%s cache hit rate out of range: %+v", name, cs)
		}
	}
	if ld.StatsCache != (wire.CacheStats{}) || ld.PlanCache != (wire.CacheStats{}) {
		t.Fatalf("statsCache and planCache are inert, want zero: %+v, %+v", ld.StatsCache, ld.PlanCache)
	}
	// Search-kernel counters: the why-empty explain ran the coarse
	// relaxation and the MCS traversal, so those families must report
	// executions (the shared test engine may carry modtree counters from
	// other tests' fine-grained explains), and no search speculates.
	for _, family := range []string{"relax", "modtree", "mcs"} {
		kc, ok := ld.Kernel[family]
		if !ok {
			t.Fatalf("missing kernel counters for %s: %+v", family, ld.Kernel)
		}
		if kc.Speculated != 0 || kc.SpecWaste != 0 {
			t.Fatalf("%s kernel reports speculation: %+v", family, kc)
		}
	}
	if ld.Kernel["relax"].Executions == 0 || ld.Kernel["mcs"].Executions == 0 {
		t.Fatalf("why-empty explain must move relax and mcs kernel counters: %+v", ld.Kernel)
	}
}

// TestExplainResultSampleClamped proves a client-supplied resultSample is
// clamped to the server maximum: the response is byte-identical to a direct
// Explain at exactly that maximum (an unclamped 2-billion sample would
// enumerate every embedding of every rewriting with no cancellation hook).
func TestExplainResultSampleClamped(t *testing.T) {
	h := newTestServer(t, Config{MaxResultSample: 40}).Handler()
	le, _ := engines(t)
	rec := do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 4", Failing: true, Lower: 1,
		Budget: 50, ResultSample: 2000000000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
	q, err := workload.FailingVariant("LDBC QUERY 4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := le.Explain(q, core.Options{
		Expected: metrics.Interval{Lower: 1}, Budget: 50, ResultSample: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wire.FromReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if got := dataBytes(t, rec); !bytes.Equal(want, got) {
		t.Fatalf("clamped response differs from direct Explain at the maximum:\nserver %s\ndirect %s", got, want)
	}
}

// TestMatchDeadline runs a cross-product count (four unconstrained persons,
// millions of embeddings up to the count cap) under a tight timeout: the
// handler must answer 504 at the deadline even though the matching engine
// itself has no cancellation hook.
func TestMatchDeadline(t *testing.T) {
	// Half a billion cap: even at a nanosecond per embedding the count runs
	// two orders of magnitude past the 40ms deadline.
	h := newTestServer(t, Config{MaxCountCap: 500000000}).Handler()
	person := map[string]wire.Predicate{
		"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}},
	}
	req := wire.MatchRequest{
		Dataset: "ldbc",
		Query: &wire.Query{Vertices: []wire.Vertex{
			{ID: 0, Preds: person}, {ID: 1, Preds: person}, {ID: 2, Preds: person}, {ID: 3, Preds: person},
		}},
		TimeoutMs: 40,
	}
	start := time.Now()
	rec := do(t, h, "POST", "/v1/match", req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("want 504 at the deadline, got %d: %s", rec.Code, rec.Body)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("handler took %v to answer a 40ms deadline", elapsed)
	}
}

// TestOversizedBodyRejected covers the 8 MiB body cap's 413 mapping.
func TestOversizedBodyRejected(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	big := append([]byte(`{"dataset":"`), bytes.Repeat([]byte("x"), 9<<20)...)
	big = append(big, `"}`...)
	if rec := do(t, h, "POST", "/v1/match", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: want 413, got %d", rec.Code)
	}
}

// TestUnparsedBodyRejected covers the strict decoder's trailing-data check on
// every endpoint that decodes a body: a second value, and a stray `}` or `]`
// (with or without bytes after it), which a decoder asking More() would
// pass. Trailing whitespace is not data.
func TestUnparsedBodyRejected(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	spec := `{"dataset":"ldbc","builtin":"LDBC QUERY 3"}`
	for _, ep := range []struct{ path, body string }{
		{"/v1/match", spec},
		{"/v1/explain", spec},
		{"/v1/explain/stream", spec},
		{"/v1/explain/batch", `{"items":[` + spec + `]}`},
		{"/v1/graph/mutate", `{"dataset":"ldbc"}`},
	} {
		for _, trailing := range []string{` {"x":1}`, `}`, `]`, `]garbage`, `]]]garbage`, ` "x"`} {
			if rec := do(t, h, "POST", ep.path, []byte(ep.body+trailing)); rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: trailing %q accepted: %d %s", ep.path, trailing, rec.Code, rec.Body)
			}
		}
	}
	if rec := do(t, h, "POST", "/v1/match", []byte(spec+" \n\t ")); rec.Code != http.StatusOK {
		t.Fatalf("trailing whitespace rejected: %d %s", rec.Code, rec.Body)
	}
}
