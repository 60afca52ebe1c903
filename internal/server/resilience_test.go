package server

// Tests for the overload-resilience layer: readiness, brownout degradation
// (with its byte-identity proof against a budget-clamped sequential run),
// bounded-queue admission, panic recovery, deterministic fault injection at
// both hook layers, and graceful shutdown under in-flight load.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"repro/internal/query"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/wire"
	"repro/internal/workload"
)

func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := do(t, h, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fresh server readyz = %d, want 503", rec.Code)
	}
	if rr := decode[wire.ReadyResponse](t, rec); rr.Ready || rr.Reason != "loading" {
		t.Fatalf("fresh server readyz body = %+v", rr)
	}

	s.SetReady()
	rec = do(t, h, "GET", "/readyz", nil)
	if rec.Code != http.StatusOK || !decode[wire.ReadyResponse](t, rec).Ready {
		t.Fatalf("ready server readyz = %d: %s", rec.Code, rec.Body)
	}
	// Liveness is independent of readiness.
	if rec := do(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz while ready = %d", rec.Code)
	}

	s.BeginDrain()
	rec = do(t, h, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rec.Code)
	}
	if rr := decode[wire.ReadyResponse](t, rec); rr.Ready || rr.Reason != "draining" {
		t.Fatalf("draining readyz body = %+v", rr)
	}
	// Draining still serves requests (the LB drains routing, not the server).
	if rec := do(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d", rec.Code)
	}
}

// TestDegradedExplainDifferential is the quality-bound proof: a degraded
// explain must be byte-identical to an ordinary sequential ExplainCtx run
// under the degraded clamps (reduced budget, maxRewritings 1, ε armed) with
// the degraded marker and quality bound attached — degradation is a budget
// policy, not a different algorithm.
func TestDegradedExplainDifferential(t *testing.T) {
	le, de := engines(t)
	cases := []struct {
		name string
		eng  *core.Engine
		req  wire.ExplainRequest
	}{
		// Fine-grained (why-so-many): the ε-stop predicate is armed.
		{"fine", le, wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1, Upper: 5, Budget: 120}},
		// Coarse (why-empty): degraded still clamps budget and rewritings.
		{"coarse", de, wire.ExplainRequest{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 1", Failing: true, Lower: 1, AllowTopology: true, Budget: 200}},
	}
	for _, tc := range cases {
		s := newTestServer(t, Config{})
		s.Resilience().ForceState(resilience.Degraded)
		rec := do(t, s.Handler(), "POST", "/v1/explain", tc.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: degraded explain = %d: %s", tc.name, rec.Code, rec.Body)
		}
		got := decodeData[wire.Report](t, rec)
		if !got.Degraded || got.QualityBound == nil {
			t.Fatalf("%s: degraded response lacks marker or bound: degraded=%v bound=%+v",
				tc.name, got.Degraded, got.QualityBound)
		}

		// Reference: the same clamps through the public engine API.
		opts := core.Options{
			Expected:      metrics.Interval{Lower: tc.req.Lower, Upper: tc.req.Upper},
			AllowTopology: tc.req.AllowTopology,
			Budget:        tc.req.Budget,
		}
		qbBudget, qbEps := degradeExplain(&opts)
		var q = mustQuery(t, tc.req)
		rep, err := tc.eng.ExplainCtx(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.FromReport(rep)
		want.Degraded = true
		want.QualityBound = qualityBound(rep, qbBudget, qbEps)
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if gotBytes := dataBytes(t, rec); !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: degraded response differs from clamped sequential run:\nserver %s\ndirect %s",
				tc.name, gotBytes, wantBytes)
		}
		if s.degradedServed.Load() != 1 {
			t.Fatalf("%s: degradedServed = %d, want 1", tc.name, s.degradedServed.Load())
		}
	}
}

func mustQuery(t *testing.T, req wire.ExplainRequest) *query.Query {
	t.Helper()
	if req.Failing {
		var err error
		var q *query.Query
		if req.Dataset == "ldbc" {
			q, err = workload.FailingVariant(req.Builtin)
		} else {
			q, err = workload.DBpediaFailingVariant(req.Builtin)
		}
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	lists := workload.LDBCQueries()
	if req.Dataset == "dbpedia" {
		lists = workload.DBpediaQueries()
	}
	for _, nq := range lists {
		if nq.Name == req.Builtin {
			return nq.Build()
		}
	}
	t.Fatalf("unknown builtin %q", req.Builtin)
	return nil
}

// fullQueueConfig gives each dataset a one-place queue, which saturate(…, 1)
// fills, and lets saturate's slow explains hold their slots for up to a
// minute.
var fullQueueConfig = Config{
	MaxBudget:      10000000,
	DefaultTimeout: time.Minute,
	QueueCap:       1,
	MaxQueueWait:   time.Minute,
}

// saturate occupies every execution slot of the ldbc dataset with slow
// explains and returns a stop func that unblocks them all.
func saturate(t *testing.T, s *Server, h http.Handler, extra int) (stop func()) {
	t.Helper()
	ds, _ := s.lookup("ldbc")
	n := ds.gate.Slots() + extra
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	blob, err := json.Marshal(slowExplain("ldbc"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/explain", bytes.NewReader(blob)).WithContext(ctx)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for ds.gate.InFlight() < ds.gate.Slots() || ds.gate.Queued() < extra {
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			t.Fatalf("saturation never reached: inFlight=%d queued=%d", ds.gate.InFlight(), ds.gate.Queued())
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestSheddingAnswers429: shedding is a full admission queue, the only
// overload refusal. It answers every gated endpoint 429 with Retry-After and
// a retryable shed envelope; /v1/stats counts it under queueFull, and shed
// stays 0.
func TestSheddingAnswers429(t *testing.T) {
	s := newTestServer(t, fullQueueConfig)
	h := s.Handler()
	stop := saturate(t, s, h, 1) // all slots busy + the 1-deep queue full
	defer stop()

	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/explain", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1}},
		{"/v1/match", wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2"}},
	} {
		rec := do(t, h, "POST", ep.path, ep.body)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s while shedding = %d: %s", ep.path, rec.Code, rec.Body)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: shed response missing Retry-After", ep.path)
		}
		if er := decodeError(t, rec); er.Code != wire.CodeShed || !er.Retryable || er.RetryAfterMs == 0 {
			t.Fatalf("%s: shed error = %+v, want retryable code shed", ep.path, er)
		}
	}
	st := decodeData[wire.StatsResponse](t, do(t, h, "GET", "/v1/stats", nil))
	if r := st.Resilience; r == nil || r.QueueFull != 2 || r.Shed != 0 || (r.State != "healthy" && r.State != "degraded") {
		t.Fatalf("stats resilience block = %+v", st.Resilience)
	}
}

func TestQueueFullAnswers429(t *testing.T) {
	s := newTestServer(t, fullQueueConfig)
	h := s.Handler()
	stop := saturate(t, s, h, 1) // all slots busy + the 1-deep queue full
	defer stop()

	rec := do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1,
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full explain = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-full response missing Retry-After")
	}
	if er := decodeError(t, rec); !strings.Contains(er.Message, "queue full") || er.Code != wire.CodeShed {
		t.Fatalf("queue-full error body: %s", rec.Body)
	}
	if s.queueFull.Load() != 1 || s.expiredQueued.Load() != 0 {
		t.Fatalf("counters: queueFull=%d expiredQueued=%d, want 1 0", s.queueFull.Load(), s.expiredQueued.Load())
	}
}

func TestQueueWaitExpiresWith504(t *testing.T) {
	s := newTestServer(t, Config{
		MaxBudget:      10000000,
		DefaultTimeout: time.Minute,
		MaxQueueWait:   50 * time.Millisecond,
	})
	h := s.Handler()
	stop := saturate(t, s, h, 0)
	defer stop()

	start := time.Now()
	rec := do(t, h, "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1,
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued-expired explain = %d: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("504 took %v, want ≈ the 50ms max queue wait", elapsed)
	}
	// Expired-in-queue and expired-while-running are distinct counters.
	if s.expiredQueued.Load() == 0 || s.expiredRunning.Load() != 0 {
		t.Fatalf("counters: expiredQueued=%d expiredRunning=%d", s.expiredQueued.Load(), s.expiredRunning.Load())
	}
}

func TestDeadlineWhileRunningCountsExpiredRunning(t *testing.T) {
	s := newTestServer(t, Config{MaxBudget: 10000000})
	req := slowExplain("ldbc")
	req.TimeoutMs = 60
	rec := do(t, s.Handler(), "POST", "/v1/explain", req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline explain = %d: %s", rec.Code, rec.Body)
	}
	if s.expiredRunning.Load() != 1 || s.expiredQueued.Load() != 0 {
		t.Fatalf("counters: expiredRunning=%d expiredQueued=%d", s.expiredRunning.Load(), s.expiredQueued.Load())
	}
}

func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{})
	boom := s.recoverer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := do(t, boom, "GET", "/v1/explain", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	// envelope checks the requestId/header echo; the code must be internal.
	if er := decodeError(t, rec); er.Code != wire.CodeInternal {
		t.Fatalf("panic error code = %q, want internal: %s", er.Code, rec.Body)
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", s.panics.Load())
	}
	// The counter feeds /v1/stats (the chaos gate fails on panics > 0).
	st := decodeData[wire.StatsResponse](t, do(t, s.Handler(), "GET", "/v1/stats", nil))
	if st.Resilience == nil || st.Resilience.Panics != 1 {
		t.Fatalf("stats resilience = %+v", st.Resilience)
	}
}

// injectorServer builds a test server whose injector fires the given fault
// on every request.
func injectorServer(t *testing.T, cfg faultinject.Config, srvCfg Config) *Server {
	t.Helper()
	srvCfg.Injector = faultinject.New(cfg)
	return newTestServer(t, srvCfg)
}

func TestInjectedErrorServerLayer(t *testing.T) {
	s := injectorServer(t, faultinject.Config{Seed: 1, PError: 1}, Config{})
	h := s.Handler()
	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/explain", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1}},
		{"/v1/match", wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2"}},
	} {
		rec := do(t, h, "POST", ep.path, ep.body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s with injected error = %d: %s", ep.path, rec.Code, rec.Body)
		}
		if er := decodeError(t, rec); !er.Injected || er.Code != wire.CodeInjected {
			t.Fatalf("%s: injected error not marked: %s", ep.path, rec.Body)
		}
	}
	if s.injected.Load() != 2 {
		t.Fatalf("injected counter = %d, want 2", s.injected.Load())
	}
}

func TestInjectedLatencyServerLayer(t *testing.T) {
	s := injectorServer(t, faultinject.Config{Seed: 1, PLatency: 1, LatencyDur: 60 * time.Millisecond}, Config{})
	start := time.Now()
	rec := do(t, s.Handler(), "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain with injected latency = %d: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("request finished in %v, want ≥ the injected 60ms", elapsed)
	}
}

// TestSlowRequestsStayHealthy serves sequential explains that the injector
// delays by 400 ms each. Slowness without contention leaves every gate
// nearly empty, so the controller stays healthy and each answer is
// byte-identical to an uninjected server's.
func TestSlowRequestsStayHealthy(t *testing.T) {
	icfg, err := faultinject.ParseSpec("latency=1.0:400ms")
	if err != nil {
		t.Fatal(err)
	}
	s := injectorServer(t, icfg, Config{})
	slow, plain := s.Handler(), newTestServer(t, Config{}).Handler()
	for i, nq := range workload.LDBCQueries()[:3] {
		req := wire.ExplainRequest{Dataset: "ldbc", Builtin: nq.Name, Failing: true, Lower: 1}
		want := dataBytes(t, do(t, plain, "POST", "/v1/explain", req))
		if got := dataBytes(t, do(t, slow, "POST", "/v1/explain", req)); !bytes.Equal(got, want) {
			t.Fatalf("explain %d behind 400ms of injected latency:\n got %s\nwant %s", i, got, want)
		}
	}
	if state := s.Resilience().State(); state != resilience.Healthy {
		t.Fatalf("state after slow sequential explains = %v, want healthy", state)
	}
}

func TestInjectedStarvationServerLayer(t *testing.T) {
	s := injectorServer(t, faultinject.Config{Seed: 1, PStarve: 1, StarveDur: 150 * time.Millisecond}, Config{})
	rec := do(t, s.Handler(), "POST", "/v1/explain", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain with starvation = %d: %s", rec.Code, rec.Body)
	}
	// The slot outlives the response (the injected leak), then frees.
	ds, _ := s.lookup("ldbc")
	if ds.gate.InFlight() == 0 {
		t.Fatal("slot already free right after the response; starvation not injected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ds.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("starved slot never released")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestInjectedCancelKernelLayer(t *testing.T) {
	s := injectorServer(t,
		faultinject.Config{Seed: 1, PCancel: 1, CancelAfter: 4},
		Config{MaxBudget: 10000000, DefaultTimeout: time.Minute})
	start := time.Now()
	rec := do(t, s.Handler(), "POST", "/v1/explain", slowExplain("ldbc"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("explain with kernel cancel = %d: %s", rec.Code, rec.Body)
	}
	if er := decodeError(t, rec); !er.Injected || er.Code != wire.CodeInjected || !er.Retryable {
		t.Fatalf("kernel cancel not marked injected: %s", rec.Body)
	}
	// The 5M-budget search must have died after ~4 executions, not run out.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("mid-search cancellation took %v", elapsed)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("injected 503 missing Retry-After")
	}
}

// TestGracefulShutdownUnderLoad is the drain contract, run against a real
// listener so connection handling is exercised end to end: with in-flight
// 5M-budget explains, BeginDrain + CancelInFlight + Shutdown must complete
// promptly and every in-flight request must receive a complete, valid JSON
// response (a drain 503) — no resets, no lost responses. Run under -race
// this certifies the drain paths' synchronization.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{
		MaxBudget:      10000000,
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     10 * time.Minute,
	})
	s.SetReady()
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	blob, err := json.Marshal(slowExplain("ldbc"))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		code int
		body []byte
		err  error
	}
	const inflight = 3
	results := make(chan outcome, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			resp, err := http.Post(base+"/v1/explain", "application/json", bytes.NewReader(blob))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			results <- outcome{code: resp.StatusCode, body: body, err: err}
		}()
	}
	ds, _ := s.lookup("ldbc")
	deadline := time.Now().Add(10 * time.Second)
	for ds.gate.InFlight() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight load never built up: %d", ds.gate.InFlight())
		}
		time.Sleep(time.Millisecond)
	}

	// Drain: readiness flips first (the LB stops routing), then in-flight
	// work is cancelled, then the listener closes.
	s.BeginDrain()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	s.CancelInFlight()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	for i := 0; i < inflight; i++ {
		out := <-results
		if out.err != nil {
			t.Fatalf("in-flight request %d lost: %v", i, out.err)
		}
		if out.code != http.StatusServiceUnavailable {
			t.Fatalf("in-flight request %d = %d: %s", i, out.code, out.body)
		}
		var env wire.Envelope
		if err := json.Unmarshal(out.body, &env); err != nil {
			t.Fatalf("in-flight request %d body not valid JSON: %q", i, out.body)
		}
		if env.Error == nil || env.Error.Code != wire.CodeDraining || !env.Error.Retryable {
			t.Fatalf("in-flight request %d error = %+v, want a retryable drain answer", i, env.Error)
		}
	}
}

// TestStatsQueueShape checks the aggregate queue fields: caps default to 4×
// each dataset's admission capacity.
func TestStatsQueueShape(t *testing.T) {
	s := newTestServer(t, Config{})
	st := decodeData[wire.StatsResponse](t, do(t, s.Handler(), "GET", "/v1/stats", nil))
	if st.Resilience == nil {
		t.Fatal("stats missing resilience block")
	}
	wantCap := 0
	for _, ds := range st.Datasets {
		wantCap += 4 * ds.AdmitCap
	}
	if st.Resilience.QueueCap != wantCap || st.Resilience.QueueDepth != 0 {
		t.Fatalf("queue shape = depth %d cap %d, want 0/%d",
			st.Resilience.QueueDepth, st.Resilience.QueueCap, wantCap)
	}
	if st.Resilience.State != "healthy" {
		t.Fatalf("idle state = %q", st.Resilience.State)
	}
}

// TestOverloadConsumersAgreeUnderSaturation holds the consumers of the slot
// occupancy to one another. While every execution slot of every dataset is
// held — the last one by a running explain — every gate reports itself full
// mid-search, and the explain's report is byte-identical to the idle one.
// Once the slots are released the gates are empty again.
func TestOverloadConsumersAgreeUnderSaturation(t *testing.T) {
	s := newTestServer(t, Config{})
	explain := func(improved func(wire.StreamEvent) error) []byte {
		t.Helper()
		prep, f := s.validateExplain(wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1, Upper: 5}, faultinject.Decision{})
		if f != nil {
			t.Fatalf("validate: %+v", f.err)
		}
		payload, _, f := s.runExplain(httptest.NewRequest("POST", "/v1/explain", nil), &prep, faultinject.Decision{}, nil, improved)
		if f != nil {
			t.Fatalf("explain: %+v", f.err)
		}
		return payload
	}
	gates := func(check func(name string, g *resilience.Gate)) {
		for _, name := range []string{"ldbc", "dbpedia"} {
			ds, _ := s.lookup(name)
			check(name, ds.gate)
		}
	}
	idle := explain(nil)

	// Hold every slot but one of ldbc's, which the explain below takes.
	var releases []func()
	for name, spare := range map[string]int{"ldbc": 1, "dbpedia": 0} {
		ds, _ := s.lookup(name)
		for i := ds.gate.Slots() - spare; i > 0; i-- {
			release, _, err := ds.gate.Enter(context.Background(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			releases = append(releases, release)
		}
	}
	improvements := 0
	saturated := explain(func(wire.StreamEvent) error {
		improvements++
		gates(func(name string, g *resilience.Gate) {
			if g.InFlight() != g.Slots() {
				t.Errorf("%s: %d of %d slots held mid-explain, want all", name, g.InFlight(), g.Slots())
			}
		})
		return nil
	})
	if improvements == 0 {
		t.Fatal("the saturated explain reported no improvement; nothing was observed mid-run")
	}
	if !bytes.Equal(saturated, idle) {
		t.Fatalf("saturated report differs from the idle one:\nsaturated %s\nidle      %s", saturated, idle)
	}

	for _, release := range releases {
		release()
	}
	gates(func(name string, g *resilience.Gate) {
		if g.InFlight() != 0 {
			t.Fatalf("%s: %d slots held after release, want 0", name, g.InFlight())
		}
	})
}
