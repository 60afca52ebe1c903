package server

// Tests for POST /v1/graph/mutate: epoch bumps, cache invalidation and
// carry-over across the engine swap, all-or-nothing validation, and a -race
// hammer proving in-flight reads pinned to an old epoch finish
// on the old engine while writers publish new ones.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/wire"
	"repro/internal/workload"
)

// mutTestValue/mutTestQuery build a two-vertex pattern over a type that no
// generated dataset contains, so its count is 0 until a mutation inserts it.
func mutTestValue(s string) wire.Value { return wire.Value{Kind: "string", Str: s} }

func mutTestQuery(typ, edgeType string) *wire.Query {
	pred := func(v string) wire.Predicate {
		return wire.Predicate{Kind: "values", Values: []wire.Value{mutTestValue(v)}}
	}
	return &wire.Query{
		Vertices: []wire.Vertex{
			{ID: 0, Preds: map[string]wire.Predicate{"type": pred(typ)}},
			{ID: 1, Preds: map[string]wire.Predicate{"type": pred(typ)}},
		},
		Edges: []wire.Edge{{ID: 0, From: 0, To: 1, Types: []string{edgeType}}},
	}
}

func countOf(t *testing.T, h http.Handler, q *wire.Query) int {
	t.Helper()
	rec := do(t, h, "POST", "/v1/match", wire.MatchRequest{Dataset: "ldbc", Query: q})
	if rec.Code != 200 {
		t.Fatalf("match got %d: %s", rec.Code, rec.Body)
	}
	return decodeData[wire.MatchResponse](t, rec).Count
}

func ldbcStats(t *testing.T, h http.Handler) wire.DatasetStats {
	t.Helper()
	st := decodeData[wire.StatsResponse](t, do(t, h, "GET", "/v1/stats", nil))
	return st.Datasets["ldbc"]
}

func TestMutateEpochAndCacheInvalidation(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	q := mutTestQuery("muttest", "mutlink")

	if st := ldbcStats(t, h); st.Epoch != 1 || st.Source != "datagen" || st.Refreezes != 0 {
		t.Fatalf("boot stats: %+v", st)
	}
	// Warm the caches with the zero-count answer the mutation must invalidate.
	if c := countOf(t, h, q); c != 0 {
		t.Fatalf("pre-mutation count %d, want 0", c)
	}

	attrs := map[string]wire.Value{"type": mutTestValue("muttest")}
	rec := do(t, h, "POST", "/v1/graph/mutate", wire.MutateRequest{
		Dataset:     "ldbc",
		AddVertices: []wire.MutVertex{{Attrs: attrs}, {Attrs: attrs}},
		AddEdges:    []wire.MutEdge{{From: -1, To: -2, Type: "mutlink"}},
	})
	if rec.Code != 200 {
		t.Fatalf("mutate got %d: %s", rec.Code, rec.Body)
	}
	mr := decodeData[wire.MutateResponse](t, rec)
	if mr.Epoch != 2 || len(mr.AddedVertices) != 2 || len(mr.AddedEdges) != 1 {
		t.Fatalf("mutate response: %+v", mr)
	}
	// The same query now counts the inserted pattern: a stale cache hit
	// across the epoch swap would still answer 0.
	if c := countOf(t, h, q); c != 1 {
		t.Fatalf("post-mutation count %d, want 1", c)
	}
	if st := ldbcStats(t, h); st.Epoch != 2 || st.Refreezes != 1 || st.Mutations != 1 || st.LastRefreezeMs <= 0 {
		t.Fatalf("post-mutation stats: %+v", st)
	}

	// Removing the inserted edge restores the zero count on epoch 3.
	rec = do(t, h, "POST", "/v1/graph/mutate", wire.MutateRequest{
		Dataset: "ldbc", RemoveEdges: []int{mr.AddedEdges[0]},
	})
	if rec.Code != 200 {
		t.Fatalf("remove got %d: %s", rec.Code, rec.Body)
	}
	if rr := decodeData[wire.MutateResponse](t, rec); rr.Epoch != 3 || rr.RemovedEdges != 1 {
		t.Fatalf("remove response: %+v", rr)
	}
	if c := countOf(t, h, q); c != 0 {
		t.Fatalf("post-removal count %d, want 0", c)
	}
}

// TestMutateCarriesUntouchedCounts covers the directions the test above does
// not: a count the batch cannot have changed is answered from the successor's
// carried cache — a hit, with the new epoch's miss counter still at zero —
// while a query that can bind any edge, or binds a vertex through no edge, is
// never carried across a write that touched an edge or a vertex.
func TestMutateCarriesUntouchedCounts(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	builtin := func() int {
		t.Helper()
		rec := do(t, h, "POST", "/v1/match", wire.MatchRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 1"})
		if rec.Code != 200 {
			t.Fatalf("match got %d: %s", rec.Code, rec.Body)
		}
		return decodeData[wire.MatchResponse](t, rec).Count
	}
	// LDBC QUERY 1 with its first edge's type deleted, and with a fourth
	// vertex nothing connects: on the person/person pattern of mutTestQuery.
	untyped := mutTestQuery("person", "knows")
	untyped.Edges[0].Types = nil
	lone := mutTestQuery("person", "knows")
	lone.Vertices = append(lone.Vertices, wire.Vertex{ID: 2, Preds: lone.Vertices[0].Preds})
	capped := func(q *wire.Query) int {
		t.Helper()
		rec := do(t, h, "POST", "/v1/match", wire.MatchRequest{Dataset: "ldbc", Query: q, CountCap: 50})
		if rec.Code != 200 {
			t.Fatalf("match got %d: %s", rec.Code, rec.Body)
		}
		return decodeData[wire.MatchResponse](t, rec).Count
	}

	// The boot engine is shared with the package's other tests, so its
	// counters are read as differences; the successor's start at zero.
	boot := ldbcStats(t, h).CountCache
	want := builtin()
	capped(untyped)
	capped(lone)
	builtin()
	if st := ldbcStats(t, h).CountCache; st.Hits-boot.Hits < 1 || st.Entries < 3 {
		t.Fatalf("warm-up count cache: %+v after %+v", st, boot)
	}

	attrs := map[string]wire.Value{"type": mutTestValue("muttest")}
	rec := do(t, h, "POST", "/v1/graph/mutate", wire.MutateRequest{
		Dataset:     "ldbc",
		AddVertices: []wire.MutVertex{{Attrs: attrs}, {Attrs: attrs}},
		AddEdges:    []wire.MutEdge{{From: -1, To: -2, Type: "mutlink"}},
	})
	if rec.Code != 200 {
		t.Fatalf("mutate got %d: %s", rec.Code, rec.Body)
	}
	// The successor starts with the entries the batch cannot have changed and
	// with counters at zero.
	if st := ldbcStats(t, h); st.Epoch != 2 || st.CountCache.Entries < 1 || st.CountCache.Hits != 0 || st.CountCache.Misses != 0 {
		t.Fatalf("fresh epoch: %+v", st)
	}
	if got := builtin(); got != want {
		t.Fatalf("builtin counts %d after an unrelated write, %d before", got, want)
	}
	if st := ldbcStats(t, h).CountCache; st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("count over untouched types was not carried: %+v", st)
	}
	capped(untyped)
	capped(lone)
	if st := ldbcStats(t, h).CountCache; st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("untyped-edge and edge-free-vertex counts must be recounted: %+v", st)
	}
}

// servedEngine returns the engine s currently serves "ldbc" from.
func servedEngine(t *testing.T, s *Server) *core.Engine {
	t.Helper()
	ds, ok := s.lookup("ldbc")
	if !ok {
		t.Fatal("server lost its ldbc dataset")
	}
	return ds.engine()
}

func TestMutateValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxMutationBatch: 3})
	h := s.Handler()
	v := wire.MutVertex{Attrs: map[string]wire.Value{"type": mutTestValue("x")}}
	eng := servedEngine(t, s)
	nv := eng.Graph().NumVertices()
	bad := map[string]wire.Value{"type": {Kind: "colour", Str: "x"}}

	for _, tc := range []struct {
		name string
		req  wire.MutateRequest
		code int
		werr wire.ErrorCode
	}{
		{"unknown dataset", wire.MutateRequest{Dataset: "nope", AddVertices: []wire.MutVertex{v}}, 404, wire.CodeInvalidSpec},
		{"empty batch", wire.MutateRequest{Dataset: "ldbc"}, 400, wire.CodeInvalidSpec},
		{"oversized batch", wire.MutateRequest{Dataset: "ldbc", AddVertices: []wire.MutVertex{v, v, v, v}}, 400, wire.CodeBoundViolation},
		{"missing edge type", wire.MutateRequest{Dataset: "ldbc", AddEdges: []wire.MutEdge{{From: 0, To: 1}}}, 400, wire.CodeInvalidSpec},
		{"batch ref out of range", wire.MutateRequest{Dataset: "ldbc", AddVertices: []wire.MutVertex{v}, AddEdges: []wire.MutEdge{{From: -1, To: -2, Type: "t"}}}, 400, wire.CodeInvalidSpec},
		{"dangling endpoint", wire.MutateRequest{Dataset: "ldbc", AddEdges: []wire.MutEdge{{From: 0, To: nv + 50, Type: "t"}}}, 400, wire.CodeInvalidSpec},
		{"remove unknown edge", wire.MutateRequest{Dataset: "ldbc", RemoveEdges: []int{1 << 30}}, 400, wire.CodeInvalidSpec},
		{"remove unknown vertex", wire.MutateRequest{Dataset: "ldbc", RemoveVertices: []int{-5}}, 400, wire.CodeInvalidSpec},
		{"negative timeout", wire.MutateRequest{Dataset: "ldbc", AddVertices: []wire.MutVertex{v}, TimeoutMs: -1}, 400, wire.CodeBoundViolation},
		{"malformed vertex attribute", wire.MutateRequest{Dataset: "ldbc", AddVertices: []wire.MutVertex{v, {Attrs: bad}}}, 400, wire.CodeInvalidSpec},
		{"malformed edge attribute", wire.MutateRequest{Dataset: "ldbc", AddEdges: []wire.MutEdge{{From: 0, To: 1, Type: "t", Attrs: bad}}}, 400, wire.CodeInvalidSpec},
	} {
		rec := do(t, h, "POST", "/v1/graph/mutate", tc.req)
		if rec.Code != tc.code {
			t.Fatalf("%s: got %d: %s", tc.name, rec.Code, rec.Body)
		}
		if e := decodeError(t, rec); e.Code != tc.werr {
			t.Fatalf("%s: code %q, want %q", tc.name, e.Code, tc.werr)
		}
	}
	// A failed batch publishes nothing.
	if st := ldbcStats(t, h); st.Epoch != 1 || st.Mutations != 0 {
		t.Fatalf("failed batches moved the epoch: %+v", st)
	}
	if servedEngine(t, s) != eng {
		t.Fatal("a failed batch replaced the engine")
	}
}

// TestRefreezeTimesThePublication pins refreezeMs / lastRefreezeMs to what
// they are documented as: the time spent forking, applying and publishing
// under the write lock — not the request's injected latency, decode or
// queueing before it.
func TestRefreezeTimesThePublication(t *testing.T) {
	s := injectorServer(t, faultinject.Config{Seed: 1, PLatency: 1, LatencyDur: 50 * time.Millisecond}, Config{})
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/graph/mutate", wire.MutateRequest{
		Dataset:     "ldbc",
		AddVertices: []wire.MutVertex{{Attrs: map[string]wire.Value{"type": mutTestValue("person")}}},
	})
	if rec.Code != 200 {
		t.Fatalf("mutate got %d: %s", rec.Code, rec.Body)
	}
	resp := decodeData[wire.MutateResponse](t, rec)
	if resp.RefreezeMs <= 0 || resp.RefreezeMs >= 25 {
		t.Fatalf("refreezeMs = %.2f for a one-vertex batch behind 50ms of injected latency, want well under 50", resp.RefreezeMs)
	}
	if st := ldbcStats(t, h); st.LastRefreezeMs != resp.RefreezeMs || st.Refreezes != 1 || st.Mutations != 1 {
		t.Fatalf("stats after one batch: %+v, want lastRefreezeMs %.2f", st, resp.RefreezeMs)
	}
}

// TestMutateRejectsMalformedAttrsBeforeLocking holds the dataset's write lock
// and fills its admission slots, then posts a batch with a malformed
// attribute value: it must be answered 400 at once — decoded and refused
// before it queues for a slot, let alone clones the graph under the lock.
func TestMutateRejectsMalformedAttrsBeforeLocking(t *testing.T) {
	s := newTestServer(t, Config{})
	ds, _ := s.lookup("ldbc")
	ds.mutMu.Lock()
	defer ds.mutMu.Unlock()
	for i := 0; i < ds.gate.Slots(); i++ {
		if _, _, err := ds.gate.Enter(context.Background(), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	rec := do(t, s.Handler(), "POST", "/v1/graph/mutate", wire.MutateRequest{
		Dataset:     "ldbc",
		AddVertices: []wire.MutVertex{{Attrs: map[string]wire.Value{"type": {Kind: "colour"}}}},
		TimeoutMs:   50,
	})
	if rec.Code != 400 || decodeError(t, rec).Code != wire.CodeInvalidSpec {
		t.Fatalf("got %d: %s", rec.Code, rec.Body)
	}
}

// TestDatasetsReportLiveCounts pins GET /v1/datasets to the counts the
// mutate response reports: tombstoned slots are not vertices or edges.
func TestDatasetsReportLiveCounts(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	g := servedEngine(t, s).Graph()
	rec := do(t, h, "POST", "/v1/graph/mutate", wire.MutateRequest{Dataset: "ldbc", RemoveVertices: []int{0}})
	if rec.Code != 200 {
		t.Fatalf("mutate got %d: %s", rec.Code, rec.Body)
	}
	mr := decodeData[wire.MutateResponse](t, rec)
	if mr.RemovedVertices != 1 || mr.RemovedEdges != g.Degree(0) || mr.RemovedEdges == 0 {
		t.Fatalf("mutate response: %+v, vertex 0 has degree %d", mr, g.Degree(0))
	}
	for _, info := range decodeData[[]wire.DatasetInfo](t, do(t, h, "GET", "/v1/datasets", nil)) {
		if info.Name != "ldbc" {
			continue
		}
		if info.Vertices != mr.Vertices || info.Edges != mr.Edges || info.Vertices != g.NumVertices()-1 {
			t.Fatalf("datasets lists %d vertices / %d edges, the write left %d / %d live", info.Vertices, info.Edges, mr.Vertices, mr.Edges)
		}
	}
}

// TestMutateEpochRace hammers explains across concurrent epoch swaps, with
// two kinds of readers. Pinned readers hold the boot engine — exactly the
// pin every handler takes — and keep explaining on it while writers publish
// epoch after epoch; clone-and-swap leaves the old graph untouched, so those
// reports must stay byte-identical to the pre-mutation baseline. HTTP
// readers go through the full handler path and must always get a well-formed
// 200, whichever epoch they land on. Run with -race: the interesting
// failures are races between the handlers' engine pin and the writer's
// publish.
func TestMutateEpochRace(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	ds, ok := s.lookup("ldbc")
	if !ok {
		t.Fatal("ldbc dataset missing")
	}
	oldEng := ds.engine()

	q, err := workload.FailingVariant("LDBC QUERY 1")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Expected: metrics.Interval{Lower: 1}}
	baselineRep, err := oldEng.Explain(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := json.Marshal(wire.FromReport(baselineRep))
	if err != nil {
		t.Fatal(err)
	}

	const readers, iters, writes = 3, 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*readers*iters+writes)
	for w := 0; w < readers; w++ {
		// Pinned reader: the old epoch must keep answering identically.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rep, err := oldEng.Explain(q, opts)
				if err != nil {
					errs <- fmt.Errorf("pinned reader %d: %v", w, err)
					return
				}
				blob, err := json.Marshal(wire.FromReport(rep))
				if err != nil {
					errs <- err
					return
				}
				if string(blob) != string(baseline) {
					errs <- fmt.Errorf("pinned reader %d: old-epoch report changed under mutation", w)
					return
				}
			}
		}(w)
		// HTTP reader: whatever epoch it pins, the answer is a clean 200.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := do(t, h, "POST", "/v1/explain",
					wire.ExplainRequest{Dataset: "ldbc", Builtin: "LDBC QUERY 1", Failing: true, Lower: 1, Budget: 40})
				if rec.Code != 200 {
					errs <- fmt.Errorf("http reader %d: got %d: %s", w, rec.Code, rec.Body)
					return
				}
				var env wire.Envelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error != nil || len(env.Data) == 0 {
					errs <- fmt.Errorf("http reader %d: bad envelope: %s", w, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		attrs := map[string]wire.Value{"type": mutTestValue("racetest")}
		for i := 0; i < writes; i++ {
			rec := do(t, h, "POST", "/v1/graph/mutate", wire.MutateRequest{
				Dataset:     "ldbc",
				AddVertices: []wire.MutVertex{{Attrs: attrs}, {Attrs: attrs}},
				AddEdges:    []wire.MutEdge{{From: -1, To: -2, Type: "racetest"}},
			})
			if rec.Code != 200 {
				errs <- fmt.Errorf("writer %d: got %d: %s", i, rec.Code, rec.Body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ds.engine() == oldEng {
		t.Fatal("mutations never swapped the engine")
	}
	if st := ldbcStats(t, h); st.Epoch != 1+writes || st.Refreezes != writes {
		t.Fatalf("final stats: %+v, want epoch %d", st, 1+writes)
	}
}
