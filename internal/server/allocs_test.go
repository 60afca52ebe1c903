//go:build !race

// The race detector's instrumentation allocates, so this pin exists only in
// uninstrumented builds.

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
)

// TestTransportAllocs pins what a warm answer of each hot endpoint leaves
// for the collector, driven through Server.Handler() with every cache hit:
// the LDBC failing-variant explains at budget 150, named as built-ins and
// sent as custom queries, and a find-mode /v1/match at limit 100. Request
// and recorder set-up are counted on all three, so the figures are
// whole-request costs. Machine-independent; the speed itself is whybench's
// explain_repeat and match_unique.
func TestTransportAllocs(t *testing.T) {
	// An explain reads 647 objects / 66 KB, the same explains as custom
	// queries 683 / 70 KB, and a find 89 objects / 26 KB, since request
	// bodies are decoded by internal/wire's one-pass decoder and a match
	// runs on its handler's goroutine. Decoding explain bodies through
	// encoding/json reads 654 / 67 KB and 723 / 73 KB: the built-in bodies
	// are too short to show it, the custom row is there to. A find read 93
	// objects while a goroutine ran each match, and 117 / 28 KB through
	// encoding/json. Encoding wire values through encoding/json, with the
	// envelope re-marshaling the payload, read 802 / 86 KB and 1 328 /
	// 109 KB.
	const (
		maxExplainObjects, maxExplainBytes = 690, 70 << 10
		maxCustomObjects, maxCustomBytes   = 700, 71 << 10
		maxFindObjects, maxFindBytes       = 92, 27 << 10
	)
	s := newTestServer(t, Config{})
	h := s.Handler()
	var explains, customs [][]byte
	for _, nq := range workload.LDBCQueries() {
		body, err := json.Marshal(wire.ExplainRequest{Dataset: "ldbc", Builtin: nq.Name, Failing: true, Lower: 1, Budget: 150})
		if err != nil {
			t.Fatal(err)
		}
		explains = append(explains, body)
		failing, err := workload.FailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		wq := wire.FromQuery(failing)
		if body, err = json.Marshal(wire.ExplainRequest{Dataset: "ldbc", Query: &wq, Lower: 1, Budget: 150}); err != nil {
			t.Fatal(err)
		}
		customs = append(customs, body)
	}
	person := map[string]wire.Predicate{"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}}}
	find, err := json.Marshal(wire.MatchRequest{Dataset: "ldbc", Mode: "find", Limit: 100, Query: &wire.Query{
		Vertices: []wire.Vertex{{ID: 0, Preds: person}, {ID: 1, Preds: person}},
		Edges:    []wire.Edge{{ID: 0, From: 0, To: 1, Types: []string{"knows"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: got %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	if n := decodeData[wire.MatchResponse](t, serve("/v1/match", find)).Count; n != 100 {
		t.Fatalf("the find answers %d results, want the limit 100", n)
	}
	perRequest := func(path string, bodies [][]byte) (objects, bytes uint64) {
		cycle := func(n int) {
			for ; n > 0; n-- {
				for _, body := range bodies {
					serve(path, body)
				}
			}
		}
		cycle(10)
		const cycles = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cycle(cycles)
		runtime.ReadMemStats(&after)
		n := uint64(cycles * len(bodies))
		return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
	}
	for _, c := range []struct {
		name                 string
		path                 string
		bodies               [][]byte
		maxObjects, maxBytes uint64
	}{
		{"explain", "/v1/explain", explains, maxExplainObjects, maxExplainBytes},
		{"custom explain", "/v1/explain", customs, maxCustomObjects, maxCustomBytes},
		{"find", "/v1/match", [][]byte{find}, maxFindObjects, maxFindBytes},
	} {
		objects, bytes := perRequest(c.path, c.bodies)
		t.Logf("%s: %d objects, %d bytes per request", c.name, objects, bytes)
		if objects > c.maxObjects || bytes > c.maxBytes {
			t.Errorf("a warm %s allocates %d objects / %d bytes, want at most %d / %d", c.name, objects, bytes, c.maxObjects, c.maxBytes)
		}
	}
}
