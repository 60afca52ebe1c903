package main

import (
	"testing"
	"time"
)

// TestSummarize pins the aggregation rules the CI gates read: what a
// documented overload outcome counts as inside and outside a chaos run, what
// may call itself an unexplained 5xx, and which batch items have a latency.
func TestSummarize(t *testing.T) {
	const ms = time.Millisecond
	overload := []sample{
		{kind: "explain", lat: 10 * ms, class: clsOK, result: result{status: 200}},
		{kind: "explain", lat: 20 * ms, class: clsExpired, result: result{status: 504}},
		{kind: "explain", lat: 30 * ms, class: clsShedExhausted, retries: 3, result: result{status: 429}},
		{kind: "match", lat: 40 * ms, class: clsInjectedExhausted, retries: 3, result: result{status: 503}},
		{kind: "match", lat: 50 * ms, class: clsTransport, retries: 3, result: result{status: 502}},
		{kind: "match", lat: 60 * ms, class: clsInjected, result: result{status: 500}},
	}
	fiveXX := []sample{
		{kind: "explain", class: clsError, result: result{status: 500}}, // the daemon composed it: unexplained
		{kind: "explain", class: clsError, result: result{status: 504}}, // a timeout explains itself
		{kind: "explain", class: clsError, result: result{status: 400}},
		{kind: "explain", class: clsTransport, result: result{status: 500}}, // status line of a dead peer
		{kind: "explain", class: clsTransport},                              // dial refused
	}
	batch := []sample{
		{kind: "batch", lat: 8 * ms, class: clsOK, result: result{status: 200, items: 8, itemErrors: 1, itemOverload: 2}},
		{kind: "batch", lat: 4 * ms, class: clsOK, retries: 1, result: result{status: 200, items: 8}},
	}
	streams := []sample{
		{kind: "stream", lat: 9 * ms, class: clsOK, result: result{status: 200, ttfe: 2 * ms, ttconverged: 9 * ms}},
		// Died after its first improvement: counted under its class, but its
		// time to first explanation is not an anytime latency of the run.
		{kind: "stream", lat: 5 * ms, class: clsInjected, result: result{status: 200, streamDead: true, ttfe: 1 * ms}},
	}

	cases := []struct {
		name    string
		samples []sample
		chaos   bool
		check   func(t *testing.T, s summary)
	}{
		{"overload outside chaos is an error", overload, false, func(t *testing.T, s summary) {
			// Expired, both exhausted classes and the transport casualty fail
			// the run; the injected 500 is explained in any mix.
			want(t, "errors", s.Errors, 4)
			want(t, "expired", s.Expired, 0)
			want(t, "shedExhausted", s.ShedExhausted, 0)
			want(t, "injectedExhausted", s.InjectedExhausted, 0)
			want(t, "injected", s.Injected, 1)
			want(t, "transport", s.Transport, 1)
			want(t, "unexplained5xx", s.Unexplained5xx, 1) // the exhausted injected 503
			want(t, "retries", s.Retries, 9)
			want(t, "latencies", s.Count, 2)
			want(t, "match errors", s.PerKind["match"].Errors, 2)
			if s.P50Ms != 10 || s.MaxMs != 60 {
				t.Errorf("p50 %.0f max %.0f, want 10 and 60: failed requests have no latency", s.P50Ms, s.MaxMs)
			}
		}},
		{"overload inside chaos is counted under its own name", overload, true, func(t *testing.T, s summary) {
			want(t, "errors", s.Errors, 0)
			want(t, "expired", s.Expired, 1)
			want(t, "shedExhausted", s.ShedExhausted, 1)
			want(t, "injectedExhausted", s.InjectedExhausted, 1)
			want(t, "injected", s.Injected, 1)
			want(t, "transport", s.Transport, 1)
			want(t, "unexplained5xx", s.Unexplained5xx, 0)
			want(t, "latencies", s.Count, 6)
			want(t, "explain requests", s.PerKind["explain"].Requests, 3)
		}},
		{"a transport casualty is never an unexplained 5xx", fiveXX, false, func(t *testing.T, s summary) {
			want(t, "errors", s.Errors, 5)
			want(t, "transport", s.Transport, 2)
			want(t, "unexplained5xx", s.Unexplained5xx, 1)
		}},
		{"nor inside chaos", fiveXX, true, func(t *testing.T, s summary) {
			want(t, "errors", s.Errors, 3)
			want(t, "unexplained5xx", s.Unexplained5xx, 1)
		}},
		{"batch item overload is an item error outside chaos", batch, false, func(t *testing.T, s summary) {
			want(t, "batches", s.Batches, 2)
			want(t, "batchItems", s.BatchItems, 16)
			want(t, "batchItemErrors", s.BatchItemErrors, 3)
			want(t, "batchItemOverload", s.BatchItemOverload, 0)
			want(t, "per-item latencies", s.PerItemMs.Count, 13)
			want(t, "errors", s.Errors, 0) // the batch itself was answered
			if !s.failed() {
				t.Error("a failed batch item must fail the run")
			}
			if s.ItemRPS != 16 || s.RPS != 2 {
				t.Errorf("itemRps %.1f rps %.1f over one second, want 16 and 2", s.ItemRPS, s.RPS)
			}
		}},
		{"and tolerated inside it", batch, true, func(t *testing.T, s summary) {
			want(t, "batchItemErrors", s.BatchItemErrors, 1)
			want(t, "batchItemOverload", s.BatchItemOverload, 2)
			// Failed and overloaded items waited for nothing: 5 + 8 served.
			want(t, "per-item latencies", s.PerItemMs.Count, 13)
			if s.PerItemMs.MaxMs != 8 || s.PerItemMs.P50Ms != 4 {
				t.Errorf("per-item p50 %.0f max %.0f, want 4 and 8 (each item waits its batch's latency)", s.PerItemMs.P50Ms, s.PerItemMs.MaxMs)
			}
		}},
		{"anytime latencies come from finished streams", streams, true, func(t *testing.T, s summary) {
			want(t, "injected", s.Injected, 1)
			want(t, "ttfe count", s.TTFEMs.Count, 1)
			want(t, "ttconverged count", s.TTConvergedMs.Count, 1)
			if s.TTFEMs.P50Ms != 2 || s.PerItemMs != nil {
				t.Errorf("ttfe p50 %.0f perItem %v, want 2 and none", s.TTFEMs.P50Ms, s.PerItemMs)
			}
		}},
		{"an empty run divides by nothing", nil, false, func(t *testing.T, s summary) {
			want(t, "requests", s.Requests, 0)
			if s.failed() || s.TTFEMs != nil || s.P99Ms != 0 {
				t.Errorf("empty run: %+v", s)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(tc.samples, tc.chaos, time.Second)
			want(t, "requests", s.Requests, len(tc.samples))
			tc.check(t, s)
		})
	}
}

func want(t *testing.T, what string, got, exp int) {
	t.Helper()
	if got != exp {
		t.Errorf("%s = %d, want %d", what, got, exp)
	}
}

// TestLatencyStats pins nearest-rank percentiles on a distribution whose
// ranks are easy to read.
func TestLatencyStats(t *testing.T) {
	var lats []time.Duration
	for i := 100; i >= 1; i-- {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	got := *latencyStats(lats)
	if want := (latStats{P50Ms: 50, P95Ms: 95, P99Ms: 99, MaxMs: 100, MeanMs: 50.5, Count: 100}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if lats[0] != 100*time.Millisecond {
		t.Fatal("latencyStats sorted its argument in place")
	}
	if one := *latencyStats(lats[:1]); one.P50Ms != 100 || one.P99Ms != 100 {
		t.Fatalf("single sample: %+v", one)
	}
}
