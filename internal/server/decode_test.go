package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
)

// referenceDecodeBody is decodeBody as it was before the one-pass decoder:
// encoding/json straight off the capped body stream.
func referenceDecodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, errors.New("trailing data after JSON body")
	}
	return 0, nil
}

// decodeRow is one body of the decoder parity table.
type decodeRow struct {
	name string
	body []byte
}

// decodeRows are the bodies the one-pass decoder is held to encoding/json
// on: FuzzExplainSpec's seeds and committed corpus, the bodies the decoder
// must leave to encoding/json (trailing data, emptiness, null, case-folded
// and repeated keys, integers and floats outside the grammar or the range,
// lone surrogates, invalid UTF-8), the ones it must take itself (an escaped
// surrogate pair, raw multi-byte UTF-8, json.Marshal's `\u003e`), one
// longer than the pooled buffer, which encoding/json decodes, and, when big
// is set, two bodies over the 8 MiB cap: a well-formed one (413) and one
// whose syntax error comes in its first KB (400: the streaming decode stops
// before the cap).
func decodeRows(t testing.TB, big bool) []decodeRow {
	var rows []decodeRow
	add := func(name, body string) { rows = append(rows, decodeRow{name, []byte(body)}) }
	for i, seed := range explainSpecSeeds {
		add("seed "+strconv.Itoa(i), seed)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzExplainSpec")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(blob), "go test fuzz v1\n"))
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("corpus %s: %v", e.Name(), err)
		}
		add("corpus "+e.Name(), body)
	}
	pred := func(p string) string {
		return `{"dataset":"ldbc","query":{"vertices":[{"id":0,"preds":{"type":{"kind":"values","values":[{"kind":"string","str":"person"}]}` + p + `}}]}}`
	}
	str := func(s string) string {
		return `{"dataset":"ldbc","query":{"vertices":[{"id":0,"preds":{"name":{"kind":"values","values":[{"kind":"string","str":"` + s + `"}]}}}]}}`
	}
	// encoding/json decodes a repeated "query" into the first one's value:
	// the vertex keeps its preds.
	q := `"query":{"vertices":[{"id":1}]}`
	for _, r := range [][2]string{
		{"trailing bracket", `{"dataset":"ldbc","builtin":"LDBC QUERY 3"}]garbage`},
		{"trailing brace", `{"dataset":"ldbc","builtin":"LDBC QUERY 3"}}`},
		{"trailing whitespace", "{\"dataset\":\"ldbc\",\"builtin\":\"LDBC QUERY 3\"} \r\n\t"},
		{"empty", ``},
		{"whitespace", " \n\t "},
		{"null", `null`},
		{"case-folded key", `{"Dataset":"ldbc","builtin":"LDBC QUERY 1"}`},
		{"exact key", `{"dataset":"ldbc","builtin":"LDBC QUERY 1"}`},
		{"escaped key", `{"d\u0061taset":"ldbc","builtin":"LDBC QUERY 1"}`},
		{"repeated query", `{"dataset":"ldbc","query":{"vertices":[{"id":0,"preds":{"age":{"kind":"range","lo":3}}}]},` + q + `}`},
		{"repeated preds key", pred(`,"type":{"kind":"range","lo":1}`)},
		{"limit 1.0", `{"dataset":"ldbc","builtin":"LDBC QUERY 1","mode":"find","limit":1.0}`},
		{"limit 1e2", `{"dataset":"ldbc","builtin":"LDBC QUERY 1","mode":"find","limit":1e2}`},
		{"limit 2^63", `{"dataset":"ldbc","builtin":"LDBC QUERY 1","mode":"find","limit":9223372036854775808}`},
		{"lo +1", pred(`,"age":{"kind":"range","lo":+1}`)},
		{"lo 0x10", pred(`,"age":{"kind":"range","lo":0x10}`)},
		{"lo 1e400", pred(`,"age":{"kind":"range","lo":1e400}`)},
		{"lo 1e-400", pred(`,"age":{"kind":"range","lo":1e-400,"hi":-0}`)},
		{"lone surrogate", str(`\ud800`)},
		{"surrogate pair", str(`\ud83d\ude00`)},
		{"invalid UTF-8", str("a\xffb\xc3")},
		{"multi-byte UTF-8", str("Zürich \u2028 \U0001F600")},
	} {
		add(r[0], r[1])
	}
	person := map[string]wire.Predicate{"type": {Kind: "values", Values: []wire.Value{{Kind: "string", Str: "person"}}}}
	find, err := json.Marshal(wire.MatchRequest{Dataset: "ldbc", Mode: "find", Limit: 3, Query: &wire.Query{
		Vertices: []wire.Vertex{{ID: 0, Preds: person}, {ID: 1, Preds: person}},
		Edges:    []wire.Edge{{ID: 0, From: 0, To: 1, Types: []string{"knows"}, Dir: "->"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	add("marshaled find", string(find))
	add("over the pooled buffer", `{"dataset":"ldbc",`+strings.Repeat(" ", maxPooledEnvelope)+`"builtin":"LDBC QUERY 1"}`)
	if big {
		pad := strings.Repeat(" ", 8<<20)
		add("over 8 MiB", `{"dataset":"ldbc",`+pad+`"builtin":"LDBC QUERY 1"}`)
		add("over 8 MiB, early syntax error", `{"dataset":"ldbc",,`+pad+`}`)
	}
	return rows
}

// decodeTargets are the bodies decodeBody decodes, with the endpoint that
// decodes each: the two the one-pass decoder takes, and the two it never
// takes.
var decodeTargets = []struct {
	path string
	new  func() any
}{
	{"/v1/explain", func() any { return new(wire.ExplainRequest) }},
	{"/v1/match", func() any { return new(wire.MatchRequest) }},
	{"/v1/explain/batch", func() any { return new(wire.BatchExplainRequest) }},
	{"/v1/graph/mutate", func() any { return new(wire.MutateRequest) }},
}

// TestDecodeBodyParity holds decodeBody to referenceDecodeBody on every
// row, decoded as an explain and as a match request: the same status, the
// same value (reflect.DeepEqual) or the same error text, and the same
// served envelope through Handler(). A refused body must be answered with
// exactly the envelope the reference error makes; an accepted one exactly
// as its re-encoding by json.Marshal is. It passes against either decoder.
func TestDecodeBodyParity(t *testing.T) {
	s := smallLDBCServer(1)
	h := s.Handler()
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", path, bytes.NewReader(body))
		r.Header.Set("X-Request-Id", "parity")
		h.ServeHTTP(rec, r)
		return rec
	}
	for _, row := range decodeRows(t, true) {
		for _, target := range decodeTargets {
			got, want := target.new(), target.new()
			gotCode, gotErr := decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", target.path, bytes.NewReader(row.body)), got)
			wantCode, wantErr := referenceDecodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", target.path, bytes.NewReader(row.body)), want)
			if gotCode != wantCode || (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Errorf("%s %s: decodeBody %d %v, reference %d %v", row.name, target.path, gotCode, gotErr, wantCode, wantErr)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: decodeBody %+v, reference %+v", row.name, target.path, got, want)
				continue
			}
			expect := httptest.NewRecorder()
			if wantErr != nil {
				r := httptest.NewRequest("POST", target.path, nil)
				r = r.WithContext(context.WithValue(r.Context(), ridCtxKey{}, "parity"))
				s.fail(expect, r, wantCode, wire.CodeInvalidSpec, "bad request body: %v", wantErr)
			} else {
				canonical, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				expect = serve(target.path, canonical)
			}
			if rec := serve(target.path, row.body); rec.Code != expect.Code || !bytes.Equal(rec.Body.Bytes(), expect.Body.Bytes()) {
				t.Errorf("%s %s: served %d %s\nwant %d %s", row.name, target.path, rec.Code, rec.Body, expect.Code, expect.Body)
			}
		}
	}
}

// FuzzDecode holds internal/wire's one-pass decoder to encoding/json: when
// it accepts a body as an explain or a match request, encoding/json (with
// unknown fields refused and nothing after the value) accepts it too, into
// a reflect.DeepEqual value; and decodeBody, whichever decoder answers,
// returns what referenceDecodeBody returns. Seeded with the parity table,
// less its two 8 MiB bodies.
func FuzzDecode(f *testing.F) {
	for _, row := range decodeRows(f, false) {
		f.Add(row.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, target := range decodeTargets {
			fast, ref := target.new(), target.new()
			if decodeOnePass(body, fast) {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(ref); err != nil {
					t.Fatalf("%q: accepted as %T, encoding/json refuses it: %v", body, fast, err)
				}
				if _, err := dec.Token(); err != io.EOF {
					t.Fatalf("%q: accepted as %T with trailing data", body, fast)
				}
				if !reflect.DeepEqual(fast, ref) {
					t.Fatalf("%q:\ndecoded       %+v\nencoding/json %+v", body, fast, ref)
				}
			}
			got, want := target.new(), target.new()
			gotCode, gotErr := decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", target.path, bytes.NewReader(body)), got)
			wantCode, wantErr := referenceDecodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", target.path, bytes.NewReader(body)), want)
			if gotCode != wantCode || (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: decodeBody %d %v %+v, reference %d %v %+v", body, gotCode, gotErr, got, wantCode, wantErr, want)
			}
		}
	})
}

// TestDecodeBufferReuse: a decoded request keeps nothing of the buffer it
// was read into. Body A is decoded, body B is read into the same buffer
// over it, and every string of A's value — map keys and edge types
// included — reads as before.
func TestDecodeBufferReuse(t *testing.T) {
	a := []byte(`{"dataset":"ldbc","mode":"find","query":{"vertices":[{"id":0,"preds":{"type":{"kind":"values","values":[{"kind":"string","str":"person"}]},"na\u006de":{"kind":"values","values":[{"kind":"string","str":"Z\u00fcrich"}]}}},{"id":1}],"edges":[{"id":0,"from":0,"to":1,"types":["knows","likes"],"dir":"-\u003e","preds":{"since":{"kind":"range","lo":2010}}}]}}`)
	if !decodeOnePass(a, new(wire.MatchRequest)) {
		t.Fatal("the one-pass decoder declines body A")
	}
	var v wire.MatchRequest
	buf, code, err := decodeBuffered(nil, bytes.NewReader(a), &v)
	if err != nil {
		t.Fatalf("body A: %d %v", code, err)
	}
	before, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{'#'}, len(a))
	again, _, _ := decodeBuffered(buf[:0], bytes.NewReader(b), new(wire.MatchRequest))
	if &again[0] != &buf[0] || !bytes.Equal(again, b) {
		t.Fatal("body B was not read over body A")
	}
	after, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("reading body B into the buffer changed A's value:\n%s\n%s", before, after)
	}
}

// BenchmarkDecodeBody times decodeBody on the two bodies it decodes in one
// pass, rendered by json.Marshal as clients send them (so an edge's "->"
// arrives as "-\u003e"): a find-mode match over LDBC QUERY 1 and an explain
// of LDBC QUERY 3 as a custom query. It fails if the one-pass decoder
// declines either.
func BenchmarkDecodeBody(b *testing.B) {
	q1, q3 := wire.FromQuery(workload.LDBCQuery1()), wire.FromQuery(workload.LDBCQuery3())
	for _, c := range []struct {
		name string
		req  any
		v    func() any
	}{
		{"match", wire.MatchRequest{Dataset: "ldbc", Query: &q1, Mode: "find", Limit: 100}, func() any { return new(wire.MatchRequest) }},
		{"explain", wire.ExplainRequest{Dataset: "ldbc", Query: &q3, Lower: 1, Upper: 5, Budget: 150}, func() any { return new(wire.ExplainRequest) }},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		if !decodeOnePass(body, c.v()) {
			b.Fatalf("the one-pass decoder declines %s", body)
		}
		b.Run(c.name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			r := &http.Request{}
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				r.Body = io.NopCloser(rd)
				if _, err := decodeBody(nil, r, c.v()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
