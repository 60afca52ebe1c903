package wire

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

// TestQueryRoundTrip proves FromQuery → ToQuery is the identity on every
// built-in workload query (binary canonical keys compare structural
// equality, including directions, types, and range inclusivity).
func TestQueryRoundTrip(t *testing.T) {
	var all []workload.Named
	all = append(all, workload.LDBCQueries()...)
	all = append(all, workload.DBpediaQueries()...)
	for _, nq := range all {
		q := nq.Build()
		back, err := FromQuery(q).ToQuery()
		if err != nil {
			t.Fatalf("%s: ToQuery: %v", nq.Name, err)
		}
		if !q.Equal(back) {
			t.Fatalf("%s: round trip changed the query:\nwant %s\ngot  %s", nq.Name, q, back)
		}
	}
}

// TestQueryRoundTripWithGaps proves rewritten queries — identifier gaps from
// vertex/edge deletions, flipped directions, deleted types — survive the
// round trip.
func TestQueryRoundTripWithGaps(t *testing.T) {
	q := workload.LDBCQuery2()
	if err := (query.DeleteEdge{Edge: 0}).Apply(q); err != nil {
		t.Fatal(err)
	}
	if err := (query.DeleteVertex{Vertex: 1}).Apply(q); err != nil {
		t.Fatal(err)
	}
	q.Edge(2).Dirs = query.Both
	if err := (query.DeleteType{Edge: 1}).Apply(q); err != nil {
		t.Fatal(err)
	}
	back, err := FromQuery(q).ToQuery()
	if err != nil {
		t.Fatalf("ToQuery: %v", err)
	}
	if !q.Equal(back) {
		t.Fatalf("round trip changed the query:\nwant %s\ngot  %s", q, back)
	}
	if back.Vertex(1) != nil || back.Edge(0) != nil {
		t.Fatalf("filler elements leaked into the decoded query: %s", back)
	}
}

// TestQueryJSONRoundTrip proves the round trip survives an actual JSON
// encode/decode, including unbounded ranges (±Inf is not representable in
// JSON and must be encoded by omission).
func TestQueryJSONRoundTrip(t *testing.T) {
	q := workload.LDBCQuery1() // has AtLeast ranges (Hi = +Inf)
	blob, err := json.Marshal(FromQuery(q))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var wq Query
	if err := json.Unmarshal(blob, &wq); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back, err := wq.ToQuery()
	if err != nil {
		t.Fatalf("ToQuery: %v", err)
	}
	if !q.Equal(back) {
		t.Fatalf("JSON round trip changed the query:\nwant %s\ngot  %s", q, back)
	}
}

// TestDeterministicEncoding proves encoding the same query twice yields
// identical bytes — the property the server's byte-for-byte differential
// test relies on.
func TestDeterministicEncoding(t *testing.T) {
	q := workload.LDBCQuery2()
	a, err := json.Marshal(FromQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(FromQuery(q.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("non-deterministic encoding:\n%s\n%s", a, b)
	}
}

func TestToQueryErrors(t *testing.T) {
	cases := []struct {
		name string
		wq   Query
	}{
		{"empty", Query{}},
		{"duplicate vertex ids", Query{Vertices: []Vertex{{ID: 0}, {ID: 0}}}},
		{"descending vertex ids", Query{Vertices: []Vertex{{ID: 1}, {ID: 0}}}},
		{"edge to missing vertex", Query{
			Vertices: []Vertex{{ID: 0}},
			Edges:    []Edge{{ID: 0, From: 0, To: 7}},
		}},
		{"vertex id above ceiling", Query{
			// Gap bridging must never turn a tiny body into unbounded
			// allocation: astronomically large ids are rejected up front.
			Vertices: []Vertex{{ID: 0}, {ID: 2000000000}},
		}},
		{"huge vertex id listed first", Query{
			Vertices: []Vertex{{ID: 2000000000}, {ID: 0}},
		}},
		{"edge id above ceiling", Query{
			Vertices: []Vertex{{ID: 0}, {ID: 1}},
			Edges:    []Edge{{ID: 2000000000, From: 0, To: 1}},
		}},
		{"edge to gap vertex id", Query{
			// Vertex 1 is an identifier gap: a placeholder briefly occupies it
			// during decoding, and an edge bound to it would be silently
			// dropped with the placeholder — must be rejected instead.
			Vertices: []Vertex{{ID: 0}, {ID: 2}},
			Edges:    []Edge{{ID: 0, From: 0, To: 1}},
		}},
		{"bad direction", Query{
			Vertices: []Vertex{{ID: 0}, {ID: 1}},
			Edges:    []Edge{{ID: 0, From: 0, To: 1, Dir: "=>"}},
		}},
		{"bad predicate kind", Query{
			Vertices: []Vertex{{ID: 0, Preds: map[string]Predicate{"type": {Kind: "regex"}}}},
		}},
		{"empty values predicate", Query{
			Vertices: []Vertex{{ID: 0, Preds: map[string]Predicate{"type": {Kind: "values"}}}},
		}},
		{"bad value kind", Query{
			Vertices: []Vertex{{ID: 0, Preds: map[string]Predicate{
				"type": {Kind: "values", Values: []Value{{Kind: "uuid"}}},
			}}},
		}},
		{"inverted range", Query{
			Vertices: []Vertex{{ID: 0, Preds: map[string]Predicate{
				"age": {Kind: "range", Lo: f64(9), Hi: f64(3)},
			}}},
		}},
	}
	for _, tc := range cases {
		_, err := tc.wq.ToQuery()
		if err == nil {
			t.Errorf("%s: ToQuery accepted an invalid query", tc.name)
		} else if _, werr := toQueryByPlaceholders(tc.wq); werr == nil || werr.Error() != err.Error() {
			t.Errorf("%s: ToQuery says %q, the placeholder route said %q", tc.name, err, werr)
		}
	}
}

func f64(f float64) *float64 { return &f }

// TestToQueryHugeGapIsCheap: a 110-byte body declaring ids 0 and 65535 once
// cost 8.5 s of CPU before admission — decoding bridged the gap with 65 534
// placeholder vertices and 65 535 placeholder edges and removed them one by
// one. It decodes to exactly the declared elements, in a handful of
// allocations.
func TestToQueryHugeGapIsCheap(t *testing.T) {
	var wq Query
	body := `{"vertices":[{"id":0},{"id":65535}],"edges":[{"id":65535,"from":0,"to":65535}]}`
	if err := json.Unmarshal([]byte(body), &wq); err != nil {
		t.Fatal(err)
	}
	q, err := wq.ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 2 || q.NumEdges() != 1 || q.Vertex(65535) == nil || q.Edge(65535) == nil || q.Validate() != nil {
		t.Fatalf("decoded %d vertices / %d edges:\n%s", q.NumVertices(), q.NumEdges(), q)
	}
	if allocs := testing.AllocsPerRun(10, func() { wq.ToQuery() }); allocs > 64 {
		t.Errorf("ToQuery allocates %v times for a three-element query with id gaps, want at most 64", allocs)
	}
}

// toQueryByPlaceholders is ToQuery as it was before query had id-taking
// constructors, verbatim: identifier gaps bridged with placeholder elements
// that are removed again. The reference for TestToQueryMatchesPlaceholderRoute.
func toQueryByPlaceholders(wq Query) (*query.Query, error) {
	if len(wq.Vertices) == 0 {
		return nil, fmt.Errorf("wire: query needs at least one vertex")
	}
	q := query.New()
	prev := -1
	declared := make(map[int]bool, len(wq.Vertices))
	var fillerVertices []int
	for _, wv := range wq.Vertices {
		if wv.ID <= prev {
			return nil, fmt.Errorf("wire: vertex ids must be unique and ascending (got %d after %d)", wv.ID, prev)
		}
		if wv.ID > MaxElementID {
			return nil, fmt.Errorf("wire: vertex id %d exceeds the maximum %d", wv.ID, MaxElementID)
		}
		for next := prev + 1; next < wv.ID; next++ {
			fillerVertices = append(fillerVertices, q.AddVertex(nil))
		}
		preds, err := toPreds(wv.Preds)
		if err != nil {
			return nil, fmt.Errorf("wire: vertex %d: %w", wv.ID, err)
		}
		if got := q.AddVertex(preds); got != wv.ID {
			return nil, fmt.Errorf("wire: internal id mismatch for vertex %d", wv.ID)
		}
		declared[wv.ID] = true
		prev = wv.ID
	}
	prev = -1
	anchor := wq.Vertices[0].ID
	var fillerEdges []int
	for _, we := range wq.Edges {
		if we.ID <= prev {
			return nil, fmt.Errorf("wire: edge ids must be unique and ascending (got %d after %d)", we.ID, prev)
		}
		if we.ID > MaxElementID {
			return nil, fmt.Errorf("wire: edge id %d exceeds the maximum %d", we.ID, MaxElementID)
		}
		// Endpoints must be declared vertices — a placeholder occupying a gap
		// id does not count (it is removed below, and query.RemoveVertex would
		// silently take the edge with it).
		if !declared[we.From] || !declared[we.To] {
			return nil, fmt.Errorf("wire: edge %d references missing vertex %d or %d", we.ID, we.From, we.To)
		}
		for next := prev + 1; next < we.ID; next++ {
			fillerEdges = append(fillerEdges, q.AddEdge(anchor, anchor, nil, nil))
		}
		preds, err := toPreds(we.Preds)
		if err != nil {
			return nil, fmt.Errorf("wire: edge %d: %w", we.ID, err)
		}
		if got := q.AddEdge(we.From, we.To, we.Types, preds); got != we.ID {
			return nil, fmt.Errorf("wire: internal id mismatch for edge %d", we.ID)
		}
		dir, err := parseDir(we.Dir)
		if err != nil {
			return nil, fmt.Errorf("wire: edge %d: %w", we.ID, err)
		}
		q.Edge(we.ID).Dirs = dir
		prev = we.ID
	}
	for _, eid := range fillerEdges {
		q.RemoveEdge(eid)
	}
	for _, vid := range fillerVertices {
		q.RemoveVertex(vid)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return q, nil
}

// TestToQueryMatchesPlaceholderRoute: over seeded random gap patterns the
// direct decode equals the placeholder route in key, canonical text and the
// identifier the next inserted edge gets — and every rejected query is
// rejected with the same message.
func TestToQueryMatchesPlaceholderRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dirs := []string{"", "->", "<-", "--"}
	for i := 0; i < 400; i++ {
		var wq Query
		id := rng.Intn(41)
		for n := 1 + rng.Intn(6); n > 0; n-- {
			wv := Vertex{ID: id}
			if rng.Intn(2) == 0 {
				wv.Preds = map[string]Predicate{"type": {Kind: "values", Values: []Value{{Kind: "string", Str: fmt.Sprint("t", rng.Intn(3))}}}}
			}
			wq.Vertices = append(wq.Vertices, wv)
			id += 1 + rng.Intn(41)
		}
		id = rng.Intn(41)
		for n := rng.Intn(6); n > 0; n-- {
			from, to := wq.Vertices[rng.Intn(len(wq.Vertices))].ID, wq.Vertices[rng.Intn(len(wq.Vertices))].ID
			we := Edge{ID: id, From: from, To: to, Dir: dirs[rng.Intn(len(dirs))]}
			if rng.Intn(2) == 0 {
				we.Types = []string{"knows", "likes"}[:1+rng.Intn(2)]
			}
			if rng.Intn(3) == 0 {
				we.Preds = map[string]Predicate{"since": {Kind: "range", Lo: f64(float64(rng.Intn(9)))}}
			}
			wq.Edges = append(wq.Edges, we)
			id += 1 + rng.Intn(41)
		}
		got, err := wq.ToQuery()
		want, werr := toQueryByPlaceholders(wq)
		if err != nil || werr != nil {
			t.Fatalf("pattern %d: ToQuery %v, placeholder route %v", i, err, werr)
		}
		if got.Key() != want.Key() || got.Canonical() != want.Canonical() {
			t.Fatalf("pattern %d: ToQuery\n%s\nplaceholder route\n%s", i, got, want)
		}
		ins := query.InsertEdge{From: wq.Vertices[0].ID, To: wq.Vertices[len(wq.Vertices)-1].ID}
		if err := ins.Apply(got); err != nil {
			t.Fatal(err)
		}
		if err := ins.Apply(want); err != nil {
			t.Fatal(err)
		}
		if got.Key() != want.Key() {
			t.Fatalf("pattern %d: the next inserted edge is numbered differently:\n%s\nvs\n%s", i, got, want)
		}
	}
}
