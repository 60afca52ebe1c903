package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

// referenceDecode is the decode the server runs when DecodeExplainRequest
// or DecodeMatchRequest declines: encoding/json with unknown fields refused,
// then nothing but the end of the body.
func referenceDecode(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(v) != nil {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// canonicalQueries are wire queries as clients render them: every built-in
// and failing variant, one with identifier gaps and both range ends, and
// one whose strings need every kind of escape json.Marshal writes.
func canonicalQueries(t *testing.T) []*Query {
	var qs []*Query
	add := func(q *query.Query) {
		wq := FromQuery(q)
		qs = append(qs, &wq)
	}
	for _, nq := range append(workload.LDBCQueries(), workload.DBpediaQueries()...) {
		add(nq.Build())
		failing := workload.FailingVariant
		if strings.HasPrefix(nq.Name, "DBPEDIA") {
			failing = workload.DBpediaFailingVariant
		}
		q, err := failing(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		add(q)
	}
	odd := "<a\u2028&\"\\\t\x00é\U0001F600>"
	qs = append(qs, &Query{
		Vertices: []Vertex{
			{ID: 0, Preds: map[string]Predicate{
				"age": {Kind: "range", Lo: f64(-1.5e-7), Hi: f64(1e21), IncLo: true},
				odd:   {Kind: "values", Values: []Value{{Kind: "string", Str: odd}, {Kind: "number", Num: -0.25}, {Kind: "bool", Bool: true}, {Kind: "number", Num: math.MaxFloat64}}},
			}},
			{ID: 7, Preds: map[string]Predicate{}},
			{ID: MaxElementID},
		},
		Edges: []Edge{
			{ID: 3, From: 7, To: 0, Types: []string{"knows", odd}, Dir: "->"},
			{ID: 9, From: 0, To: 0, Types: []string{}, Dir: "<-", Preds: map[string]Predicate{"w": {Kind: "range", Hi: f64(3)}}},
		},
	})
	return qs
}

// TestDecodeCanonical: every body json.Marshal renders from a request is
// accepted, into the value encoding/json decodes. The bodies carry
// json.Marshal's `\u003e` and `\u003c` escapes, U+2028 and nested empty
// and absent collections.
func TestDecodeCanonical(t *testing.T) {
	fg := false
	for _, q := range canonicalQueries(t) {
		for _, req := range []any{
			ExplainRequest{Dataset: "ldbc", Query: q, Lower: 1, Upper: math.MaxInt, MaxRewritings: 2, FineGrained: &fg, AllowTopology: true, Budget: -1, ResultSample: 5, TimeoutMs: 100},
			ExplainRequest{Dataset: "ldbc", Query: q},
			MatchRequest{Dataset: "dbpedia", Query: q, Mode: "find", Limit: 100, CountCap: math.MinInt, TimeoutMs: 7},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			switch req.(type) {
			case ExplainRequest:
				var got, want ExplainRequest
				checkAccepted(t, body, DecodeExplainRequest(body, &got), referenceDecode(body, &want), got, want)
			case MatchRequest:
				var got, want MatchRequest
				checkAccepted(t, body, DecodeMatchRequest(body, &got), referenceDecode(body, &want), got, want)
			}
		}
	}
	// Bodies no encoder writes: whitespace around every token, every escape,
	// an escaped surrogate pair, -0.
	for _, body := range []string{
		" \t\r\n{\"dataset\" : \"ldbc\" , \"builtin\":\"LDBC QUERY 2\",\"failing\":true}\n ",
		`{"dataset":"\ud83d\ude00\u00E9\"\\\/\b\f\n\r\t\u0000","lower":-0,"query":{"vertices":[{"id":0,"preds":{"\u2028":{"kind":"range","lo":-0,"hi":-0.0e-0}}}]}}`,
	} {
		var got, want ExplainRequest
		checkAccepted(t, []byte(body), DecodeExplainRequest([]byte(body), &got), referenceDecode([]byte(body), &want), got, want)
	}
}

func checkAccepted(t *testing.T, body []byte, accepted, refAccepted bool, got, want any) {
	t.Helper()
	if !refAccepted {
		t.Fatalf("%s: encoding/json refuses the body", body)
	}
	if !accepted {
		t.Fatalf("%s: declined", body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\ndecoded       %+v\nencoding/json %+v", body, got, want)
	}
}

// TestDecodeDeclines: each body is one that encoding/json answers
// differently from a literal reading — with an error, a case-folded or
// merged field, a U+FFFD or a value left alone — and the decoder leaves it
// to encoding/json, with the request untouched.
func TestDecodeDeclines(t *testing.T) {
	q := `"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"values","values":[{"kind":"string","str":"x"}]}}}]}`
	for _, body := range []string{
		``, ` `, `null`, `[]`, `"x"`, `{`, `{"dataset":"ldbc",}`, `{"dataset":"ldbc"}]garbage`, `{"dataset":"ldbc"} {}`, `{"dataset":"ldbc"}x`,
		`{"dataset":null}`, `{"query":null}`, `{"lower":null}`, `{"failing":null}`, `{"query":{"vertices":null}}`,
		`{"dataset":"ldbc","dataset":"dbpedia"}`, `{"dataset":"ldbc",` + q + `,` + q + `}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range"},"a":{"kind":"values"}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range"},"\u0061":{"kind":"values"}}}]}}`,
		`{"Dataset":"ldbc"}`, `{"DATASET":"ldbc"}`, `{"d\u0061taset":"ldbc"}`, `{"workers":1}`, `{"allowPartial":true}`,
		`{"dataset":"\ud800"}`, `{"dataset":"\udc00\ud800"}`, `{"dataset":"\ud800\u0041"}`, "{\"dataset\":\"\xff\"}", "{\"dataset\":\"\xed\xa0\x80\"}",
		"{\"dataset\":\"a\nb\"}", `{"dataset":"\x"}`, `{"dataset":"\u12"}`, `{"dataset":"\u12g4"}`,
		`{"lower":1.0}`, `{"lower":1e2}`, `{"lower":-}`, `{"lower":01}`, `{"lower":+1}`, `{"lower":9223372036854775808}`, `{"lower":-9223372036854775809}`, `{"lower":"1"}`, `{"lower":true}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":+1}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":0x10}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":1e400}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":1_0}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":Inf}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":.5}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":1.}}}]}}`,
		`{"query":{"vertices":[{"id":0,"preds":{"a":{"kind":"range","lo":1e}}}]}}`,
		`{"query":{"vertices":[{"id":0}],}}`, `{"query":{"vertices":[{"id":0},]}}`, `{"query":{"vertices":[,]}}`,
		`{"failing":tru}`, `{"failing":truex}`, `{"failing":1}`,
	} {
		sentinel := ExplainRequest{Dataset: "untouched"}
		got := sentinel
		if DecodeExplainRequest([]byte(body), &got) {
			t.Errorf("%s: accepted as %+v", body, got)
		} else if !reflect.DeepEqual(got, sentinel) {
			t.Errorf("%s: declined, but wrote %+v", body, got)
		}
	}
	ends := `{"lower":` + strconv.Itoa(math.MinInt) + `,"upper":` + strconv.Itoa(math.MaxInt) + `}`
	if got := new(ExplainRequest); !DecodeExplainRequest([]byte(ends), got) || got.Lower != math.MinInt || got.Upper != math.MaxInt {
		t.Errorf("%s: decoded as %+v", ends, got)
	}
}
