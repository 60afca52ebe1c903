package server

// Tests for the anytime streaming transport: the done-event byte-identity
// proof against /v1/explain, per-family monotone quality bounds, pre-stream
// refusals answering plain envelopes, degraded streams carrying per-event
// quality bounds, and mid-stream client disconnect stopping the search.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/wire"
)

type sseEvent struct {
	name string
	data []byte
}

// parseSSE splits a recorded text/event-stream body into its events.
func parseSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range bytes.Split(body, []byte("\n\n")) {
		if len(bytes.TrimSpace(block)) == 0 {
			continue
		}
		var ev sseEvent
		for _, line := range bytes.Split(block, []byte("\n")) {
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				ev.name = string(bytes.TrimPrefix(line, []byte("event: ")))
			case bytes.HasPrefix(line, []byte("data: ")):
				ev.data = bytes.TrimPrefix(line, []byte("data: "))
			default:
				t.Fatalf("malformed SSE line %q", line)
			}
		}
		if ev.name == "" || ev.data == nil {
			t.Fatalf("incomplete SSE block %q", block)
		}
		events = append(events, ev)
	}
	return events
}

// TestStreamDifferential is the transport-equivalence proof: for the same
// request, the stream's done event carries exactly the bytes /v1/explain
// puts in its envelope's data field, the improvement events are well-formed,
// and every family's quality bound is monotone (best distance non-increasing,
// executed non-decreasing, remaining = budget - executed).
func TestStreamDifferential(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	cases := []struct {
		name             string
		req              wire.ExplainRequest
		wantImprovements bool
	}{
		{"ldbc why-empty", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1}, true},
		{"ldbc why-so-many", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 3", Lower: 1, Upper: 5, Budget: 120}, true},
		{"ldbc why-empty topology", wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, AllowTopology: true, Budget: 150}, true},
		{"dbpedia why-empty topology", wire.ExplainRequest{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 1", Failing: true, Lower: 1, AllowTopology: true}, true},
		{"dbpedia why-empty", wire.ExplainRequest{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 4", Failing: true, Lower: 1, Budget: 150}, true},
		{"dbpedia bounded", wire.ExplainRequest{Dataset: "dbpedia", Builtin: "DBPEDIA QUERY 2", Lower: 1, Upper: 1, Budget: 100}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := do(t, h, "POST", "/v1/explain", tc.req)
			if plain.Code != http.StatusOK {
				t.Fatalf("/v1/explain = %d: %s", plain.Code, plain.Body)
			}
			want := dataBytes(t, plain)

			rec := do(t, h, "POST", "/v1/explain/stream", tc.req)
			if rec.Code != http.StatusOK {
				t.Fatalf("/v1/explain/stream = %d: %s", rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("stream content type = %q", ct)
			}
			if !rec.Flushed {
				t.Fatal("stream response never flushed")
			}
			events := parseSSE(t, rec.Body.Bytes())
			if len(events) == 0 || events[len(events)-1].name != "done" {
				t.Fatalf("stream must end in a done event, got %d events", len(events))
			}
			done := events[len(events)-1]
			if !bytes.Equal(done.data, want) {
				t.Fatalf("done event differs from /v1/explain data:\nstream %s\nplain  %s", done.data, want)
			}

			improvements := events[:len(events)-1]
			if tc.wantImprovements && len(improvements) == 0 {
				t.Fatal("expected improvement events before done")
			}
			bestByFamily := map[string]int{}
			execByFamily := map[string]int{}
			for i, ev := range improvements {
				if ev.name != "improvement" {
					t.Fatalf("event %d: unexpected %q before done", i, ev.name)
				}
				var se wire.StreamEvent
				if err := json.Unmarshal(ev.data, &se); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
				if se.Seq != i+1 {
					t.Fatalf("event %d: seq = %d, want %d", i, se.Seq, i+1)
				}
				if se.Family == "" {
					t.Fatalf("event %d: missing family", i)
				}
				if se.QualityBound != nil {
					t.Fatalf("event %d: healthy stream carries a quality bound", i)
				}
				if best, ok := bestByFamily[se.Family]; ok && se.Bound.BestDistance > best {
					t.Fatalf("event %d: family %s bound regressed %d -> %d", i, se.Family, best, se.Bound.BestDistance)
				}
				bestByFamily[se.Family] = se.Bound.BestDistance
				if se.Bound.Executed < execByFamily[se.Family] {
					t.Fatalf("event %d: family %s executed decreased", i, se.Family)
				}
				execByFamily[se.Family] = se.Bound.Executed
				if se.Bound.Executed+se.Bound.Remaining <= 0 {
					t.Fatalf("event %d: degenerate bound %+v", i, se.Bound)
				}
			}
		})
	}
}

// TestStreamRefusalsAnswerPlainEnvelopes: failures before the stream opens
// (bad spec, full queue) answer ordinary JSON error envelopes, not SSE.
func TestStreamRefusalsAnswerPlainEnvelopes(t *testing.T) {
	s := newTestServer(t, fullQueueConfig)
	h := s.Handler()

	rec := do(t, h, "POST", "/v1/explain/stream", wire.ExplainRequest{Dataset: "imdb", Builtin: "LDBC QUERY 2"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset stream = %d: %s", rec.Code, rec.Body)
	}
	if er := decodeError(t, rec); er.Code != wire.CodeInvalidSpec {
		t.Fatalf("unknown dataset code = %q", er.Code)
	}

	defer saturate(t, s, h, 1)()
	rec = do(t, h, "POST", "/v1/explain/stream", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1,
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed stream = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("shed answer must not open a stream: %q", ct)
	}
	if er := decodeError(t, rec); er.Code != wire.CodeShed || !er.Retryable || !strings.Contains(er.Message, "queue full") {
		t.Fatalf("shed stream error = %+v", er)
	}
}

// TestStreamDegradedCarriesBound: a stream served in brownout degradation
// stamps the quality bound on every improvement event and on the done
// report.
func TestStreamDegradedCarriesBound(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Resilience().ForceState(resilience.Degraded)
	rec := do(t, s.Handler(), "POST", "/v1/explain/stream", wire.ExplainRequest{
		Dataset: "ldbc", Builtin: "LDBC QUERY 2", Failing: true, Lower: 1, Budget: 200,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded stream = %d: %s", rec.Code, rec.Body)
	}
	events := parseSSE(t, rec.Body.Bytes())
	if len(events) < 2 || events[len(events)-1].name != "done" {
		t.Fatalf("degraded stream events: %d", len(events))
	}
	for i, ev := range events[:len(events)-1] {
		var se wire.StreamEvent
		if err := json.Unmarshal(ev.data, &se); err != nil {
			t.Fatal(err)
		}
		if se.QualityBound == nil || se.QualityBound.Budget == 0 {
			t.Fatalf("degraded improvement %d missing quality bound: %s", i, ev.data)
		}
	}
	var rep wire.Report
	if err := json.Unmarshal(events[len(events)-1].data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.QualityBound == nil {
		t.Fatalf("degraded done report lacks marker or bound: degraded=%v", rep.Degraded)
	}
	if s.degradedServed.Load() != 1 {
		t.Fatalf("degradedServed = %d, want 1", s.degradedServed.Load())
	}
}

// brokenPipeWriter simulates a client that disconnects mid-stream: writes
// succeed until the first improvement event has gone out, then fail the way
// a closed connection does.
type brokenPipeWriter struct {
	*httptest.ResponseRecorder
	writes int
	limit  int
}

func (b *brokenPipeWriter) Write(p []byte) (int, error) {
	b.writes++
	if b.writes > b.limit {
		return 0, errors.New("write tcp: broken pipe")
	}
	return b.ResponseRecorder.Write(p)
}

func (b *brokenPipeWriter) Flush() {}

// TestStreamClientDisconnect: when the event write fails (client gone), the
// handler cancels the search before the next candidate execution — a
// 5M-budget explain must return promptly instead of streaming into the
// void. Run under -race this certifies the cancellation path.
func TestStreamClientDisconnect(t *testing.T) {
	s := newTestServer(t, Config{MaxBudget: 10000000, DefaultTimeout: 5 * time.Minute, MaxTimeout: 10 * time.Minute})
	h := s.Handler()
	blob, err := json.Marshal(slowExplain("ldbc"))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/explain/stream", bytes.NewReader(blob))
	w := &brokenPipeWriter{ResponseRecorder: httptest.NewRecorder(), limit: 1}
	start := time.Now()
	h.ServeHTTP(w, req)
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("handler streamed %v after the client disconnected", elapsed)
	}
	events := parseSSE(t, w.Body.Bytes())
	if len(events) != 1 || events[0].name != "improvement" {
		t.Fatalf("want exactly the one delivered improvement event, got %d", len(events))
	}
	if s.reqCancelled.Load() == 0 {
		t.Fatal("disconnect not counted as a cancellation")
	}
}
