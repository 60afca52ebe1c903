package server

// The failure half of the transport differentials: TestStreamDifferential
// and TestBatchMatchesSequentialExplain prove the three explain transports
// carry the same bytes on success; this table proves they report the same
// failure for every rung of the mid-run ladder.

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestErrorParityAcrossTransports runs each mid-run failure through
// /v1/explain, /v1/explain/stream and a batch of one, each on a fresh server,
// and requires the blocking envelope's error, the stream's `error` event and
// the batch item's error to be equal (request ids aside) and to bump the same
// /v1/stats counters.
func TestErrorParityAcrossTransports(t *testing.T) {
	big := Config{MaxBudget: 10000000, DefaultTimeout: time.Minute}
	expiring := slowExplain("ldbc")
	expiring.TimeoutMs = 60
	cases := []struct {
		name   string
		server func(t *testing.T) *Server
		req    wire.ExplainRequest
		// midRun, when set, fires once the request holds its execution slot.
		midRun func(s *Server)
		status int
		code   wire.ErrorCode
	}{
		{
			name:   "deadline_running",
			server: func(t *testing.T) *Server { return newTestServer(t, big) },
			req:    expiring,
			status: http.StatusGatewayTimeout, code: wire.CodeDeadlineRunning,
		},
		{
			name: "injected mid-search cancel",
			server: func(t *testing.T) *Server {
				return injectorServer(t, faultinject.Config{Seed: 1, PCancel: 1, CancelAfter: 4}, big)
			},
			req:    slowExplain("ldbc"),
			status: http.StatusServiceUnavailable, code: wire.CodeInjected,
		},
		{
			// Reachable only through a builtin: wire queries are validated at
			// decode, so the engine's own rejection needs a registered query
			// with a dangling edge.
			name: "engine-rejected spec",
			server: func(t *testing.T) *Server {
				s := newTestServer(t, Config{})
				le, _ := engines(t)
				s.AddDataset("broken", le, []workload.Named{{Name: "dangling", Build: func() *query.Query {
					q := query.New()
					v := q.AddVertex(nil)
					q.Edge(q.AddEdge(v, v, nil, nil)).To = v + 1
					return q
				}}}, nil)
				return s
			},
			req:    wire.ExplainRequest{Dataset: "broken", Builtin: "dangling", Lower: 1},
			status: http.StatusBadRequest, code: wire.CodeInvalidSpec,
		},
		{
			name:   "drain",
			server: func(t *testing.T) *Server { return newTestServer(t, big) },
			req:    slowExplain("ldbc"),
			midRun: (*Server).CancelInFlight,
			status: http.StatusServiceUnavailable, code: wire.CodeDraining,
		},
	}
	type outcome struct {
		err                                         wire.Error
		errors, cancelled, expiredRunning, injected int64
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(path string, body any) (*Server, []byte, int) {
				s := tc.server(t)
				fired := make(chan struct{})
				go func() {
					defer close(fired)
					if tc.midRun == nil {
						return
					}
					ds, _ := s.lookup(tc.req.Dataset)
					for ds.gate.InFlight() == 0 {
						time.Sleep(time.Millisecond)
					}
					tc.midRun(s)
				}()
				rec := do(t, s.Handler(), "POST", path, body)
				<-fired
				return s, rec.Body.Bytes(), rec.Code
			}
			observe := func(s *Server, e *wire.Error) outcome {
				if e == nil {
					t.Fatal("answer carries no error object")
				}
				st := decodeData[wire.StatsResponse](t, do(t, s.Handler(), "GET", "/v1/stats", nil))
				return outcome{*e, st.Requests.Errors, st.Requests.Cancelled, st.Resilience.ExpiredRunning, st.Resilience.Injected}
			}

			s, body, status := run("/v1/explain", tc.req)
			if status != tc.status {
				t.Fatalf("/v1/explain = %d, want %d: %s", status, tc.status, body)
			}
			var env wire.Envelope
			mustUnmarshal(t, body, &env)
			want := observe(s, env.Error)
			if want.err.Code != tc.code || want.errors != 1 {
				t.Fatalf("/v1/explain failed as %+v, want one %s", want, tc.code)
			}

			s, body, status = run("/v1/explain/stream", tc.req)
			events := parseSSE(t, body)
			if status != http.StatusOK || len(events) == 0 || events[len(events)-1].name != "error" {
				t.Fatalf("stream = %d, want an open stream ending in an error event: %s", status, body)
			}
			env = wire.Envelope{}
			mustUnmarshal(t, events[len(events)-1].data, &env)
			if got := observe(s, env.Error); got != want {
				t.Errorf("stream error event differs from /v1/explain:\n stream: %+v\n alone:  %+v", got, want)
			}

			s, body, status = run("/v1/explain/batch", wire.BatchExplainRequest{Items: []wire.ExplainRequest{tc.req}})
			if status != http.StatusOK {
				t.Fatalf("batch = %d: %s", status, body)
			}
			env = wire.Envelope{}
			mustUnmarshal(t, body, &env)
			var items wire.BatchExplainResponse
			mustUnmarshal(t, env.Data, &items)
			if len(items.Items) != 1 {
				t.Fatalf("batch answered %d items: %s", len(items.Items), body)
			}
			if got := observe(s, items.Items[0].Error); got != want {
				t.Errorf("batch item differs from /v1/explain:\n batch: %+v\n alone: %+v", got, want)
			}
		})
	}
}
