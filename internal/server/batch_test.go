package server

// Differential and fault tests for POST /v1/explain/batch, plus the
// cold-burst stampede test (identical explains at once on a cold engine).
// The batch contract under test: Items[i] of the response carries
// byte-for-byte the data (or structured error) that request i would have
// received from a separate /v1/explain call, whatever mixture of valid,
// invalid and degraded items the batch carries.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/resilience"
	"repro/internal/wire"
	"repro/internal/workload"
)

// batchItems unwraps a 200 batch response and checks every item id is
// "<batchId>/<i>".
func batchItems(t *testing.T, h http.Handler, items []wire.ExplainRequest) []wire.Envelope {
	t.Helper()
	rec := do(t, h, "POST", "/v1/explain/batch", wire.BatchExplainRequest{Items: items})
	if rec.Code != 200 {
		t.Fatalf("batch got %d: %s", rec.Code, rec.Body)
	}
	env := envelope(t, rec)
	resp := decodeData[wire.BatchExplainResponse](t, rec)
	if len(resp.Items) != len(items) {
		t.Fatalf("batch answered %d items, want %d", len(resp.Items), len(items))
	}
	for i, item := range resp.Items {
		if want := fmt.Sprintf("%s/%d", env.RequestID, i); item.RequestID != want {
			t.Fatalf("item %d requestId %q, want %q", i, item.RequestID, want)
		}
		if (item.Data == nil) == (item.Error == nil) {
			t.Fatalf("item %d must carry exactly one of data/error: %s", i, rec.Body)
		}
	}
	return resp.Items
}

// TestBatchMatchesSequentialExplain is the core differential: a mixed batch
// across both datasets, with duplicate specs, answers each item with exactly
// the bytes the same spec gets from a sequential /v1/explain call.
func TestBatchMatchesSequentialExplain(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	items := []wire.ExplainRequest{
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 60},
		{Dataset: "dbpedia", Builtin: workload.DBpediaQueries()[0].Name, Failing: true, Lower: 1, Budget: 40},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 60}, // duplicate of 0
		{Dataset: "ldbc", Builtin: "LDBC QUERY 2", Lower: 1, Upper: 3, Budget: 60},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 60, FineGrained: boolPtr(true)}, // same query, different engine: distinct work
	}
	got := batchItems(t, h, items)
	for i, item := range items {
		want := dataBytes(t, do(t, h, "POST", "/v1/explain", item))
		if string(got[i].Data) != string(want) {
			t.Errorf("item %d differs from sequential explain:\n batch: %s\n alone: %s", i, got[i].Data, want)
		}
	}
	// Duplicates share one payload; a different engine selection must not.
	if string(got[0].Data) != string(got[2].Data) {
		t.Errorf("duplicate items 0 and 2 differ")
	}
	if string(got[0].Data) == string(got[4].Data) {
		t.Errorf("items 0 and 4 ran under different engines but answered identically")
	}
	st := decodeData[wire.StatsResponse](t, do(t, h, "GET", "/v1/stats", nil))
	if st.Requests.Batch != 1 || st.Requests.BatchItems != int64(len(items)) {
		t.Errorf("batch counters = %d/%d, want 1/%d", st.Requests.Batch, st.Requests.BatchItems, len(items))
	}
}

// TestBatchMixedValidInvalid checks items fail independently with the same
// structured error a separate call reports, while valid neighbours succeed.
func TestBatchMixedValidInvalid(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	items := []wire.ExplainRequest{
		{Dataset: "nope", Builtin: "LDBC QUERY 1", Lower: 1},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 40},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Lower: 5, Upper: 2},
		{Dataset: "ldbc", Builtin: "no such query", Lower: 1},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Budget: -1},
	}
	got := batchItems(t, h, items)
	for i, wantCode := range map[int]wire.ErrorCode{
		0: wire.CodeInvalidSpec,
		2: wire.CodeBoundViolation,
		3: wire.CodeInvalidSpec,
		4: wire.CodeBoundViolation,
	} {
		if got[i].Error == nil || got[i].Error.Code != wantCode {
			t.Errorf("item %d: got %+v, want error code %q", i, got[i].Error, wantCode)
		}
		// The error object matches the one a separate call builds.
		rec := do(t, h, "POST", "/v1/explain", items[i])
		alone := decodeError(t, rec)
		if *got[i].Error != alone {
			t.Errorf("item %d error %+v != sequential error %+v", i, *got[i].Error, alone)
		}
	}
	if got[1].Data == nil {
		t.Fatalf("valid item 1 failed: %+v", got[1].Error)
	}
	want := dataBytes(t, do(t, h, "POST", "/v1/explain", items[1]))
	if string(got[1].Data) != string(want) {
		t.Errorf("valid item among invalid ones differs from sequential explain")
	}
}

func TestBatchLimits(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 3})
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/explain/batch", wire.BatchExplainRequest{})
	if rec.Code != 400 {
		t.Fatalf("empty batch got %d: %s", rec.Code, rec.Body)
	}
	four := make([]wire.ExplainRequest, 4)
	for i := range four {
		four[i] = wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Lower: 1}
	}
	rec = do(t, h, "POST", "/v1/explain/batch", wire.BatchExplainRequest{Items: four})
	if rec.Code != 400 {
		t.Fatalf("oversized batch got %d: %s", rec.Code, rec.Body)
	}
	if e := decodeError(t, rec); e.Code != wire.CodeInvalidSpec || !strings.Contains(e.Message, "maximum of 3") {
		t.Fatalf("oversized batch error: %+v", e)
	}
}

// TestBatchDegradedUnderBrownout forces the brownout controller into
// Degraded and checks batch items degrade exactly as single calls do:
// stamped degraded with a quality bound, byte-identical to the sequential
// degraded answer.
func TestBatchDegradedUnderBrownout(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Resilience().ForceState(resilience.Degraded)
	h := s.Handler()
	items := []wire.ExplainRequest{
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 200},
		{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 200},
	}
	got := batchItems(t, h, items)
	for i := range got {
		if got[i].Error != nil {
			t.Fatalf("item %d failed: %+v", i, got[i].Error)
		}
		rep := decodeData[wire.Report](t, do(t, h, "POST", "/v1/explain", items[i]))
		if !rep.Degraded {
			t.Fatalf("sequential reference not degraded — brownout pin lost")
		}
		want := dataBytes(t, do(t, h, "POST", "/v1/explain", items[i]))
		if string(got[i].Data) != string(want) {
			t.Errorf("degraded item %d differs from sequential degraded explain:\n batch: %s\n alone: %s", i, got[i].Data, want)
		}
	}
}

func mustUnmarshal(t *testing.T, blob []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("decoding %q: %v", blob, err)
	}
}

// smallLDBCServer serves "ldbc" alone, from its own freshly generated small
// engine with the given worker count, so every matcher cache starts cold. The
// brownout controller is pinned Healthy: a concurrent burst can fill the
// gate's occupancy and must not trip degradation mid-test.
func smallLDBCServer(workers int) *Server {
	eng := core.NewEngine(datagen.LDBC(datagen.DefaultLDBC().Scaled(0.2)))
	eng.SetWorkers(workers)
	s := New(Config{})
	s.Resilience().ForceState(resilience.Healthy)
	s.AddDataset("ldbc", eng, workload.LDBCQueries(), workload.FailingVariant)
	return s
}

// TestColdBurstIdentical is the stampede test: 16 identical explains hit a
// cold engine concurrently — each may compute the same plans and counts —
// and every caller must still get the answer a sequential run gives, byte for
// byte. Run under -race in CI.
func TestColdBurstIdentical(t *testing.T) {
	req := wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 60}

	seq := smallLDBCServer(4)
	sh := seq.Handler()
	var want []byte
	for i := 0; i < 16; i++ {
		blob := dataBytes(t, do(t, sh, "POST", "/v1/explain", req))
		if want == nil {
			want = blob
		} else if string(blob) != string(want) {
			t.Fatalf("sequential run %d nondeterministic", i)
		}
	}

	// The burst: 16 goroutines released together against a cold engine.
	bh := smallLDBCServer(4).Handler()
	start := make(chan struct{})
	blobs := make([][]byte, 16)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			blobs[i] = dataBytes(t, do(t, bh, "POST", "/v1/explain", req))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, blob := range blobs {
		if string(blob) != string(want) {
			t.Errorf("burst caller %d differs from sequential answer:\n burst: %s\n seq: %s", i, blob, want)
		}
	}
}

func boolPtr(b bool) *bool { return &b }
