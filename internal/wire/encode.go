package wire

// This file holds the append encoders of the two hot answers — the explain
// report (POST /v1/explain, the stream's `done` event, every batch item) and
// the match response (POST /v1/match) — and of the v1 success envelope that
// carries them. They write, from the engine's own values, exactly the bytes
// encoding/json writes for FromReport, MatchResponse and Envelope: same
// field order, same omissions, same string escaping (HTML-safe, U+2028 and
// U+2029 escaped, invalid UTF-8 replaced) and same float formatting. No
// Report, Query or Result value is built on the way, nothing is reflected
// over, and the envelope copies the payload instead of re-validating it.
// The tests hold every byte against encoding/json.

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/query"
)

// AppendReport appends the encoding of r — json.Marshal(FromReport(r)) —
// to dst. A non-nil qb marks a degraded (brownout) answer: the report then
// carries "degraded":true and the quality bound, as the serving layer stamps
// them. The only failure is a NaN or infinite float, which JSON cannot carry.
func AppendReport(dst []byte, r *core.Report, qb *QualityBound) ([]byte, error) {
	b := append(dst, `{"problem":`...)
	b = appendString(b, r.Problem.String())
	b = append(b, `,"cardinality":`...)
	b = strconv.AppendInt(b, int64(r.Cardinality), 10)
	b = append(b, `,"expected":{"lower":`...)
	b = strconv.AppendInt(b, int64(r.Expected.Lower), 10)
	if r.Expected.Upper != 0 {
		b = append(b, `,"upper":`...)
		b = strconv.AppendInt(b, int64(r.Expected.Upper), 10)
	}
	b = append(b, `},"fineGrained":`...)
	b = strconv.AppendBool(b, r.FineGrained)
	b = append(b, `,"executed":`...)
	b = strconv.AppendInt(b, int64(r.Executed), 10)
	var err error
	if r.Subgraph != nil {
		b = append(b, `,"subgraph":`...)
		if b, err = appendSubgraph(b, r.Subgraph); err != nil {
			return nil, err
		}
	}
	if len(r.Rewritings) > 0 {
		b = append(b, `,"rewritings":[`...)
		for i := range r.Rewritings {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendRewriting(b, &r.Rewritings[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if len(r.Trace) > 0 {
		b = append(b, `,"trace":`...)
		b = appendInts(b, r.Trace)
	}
	if qb != nil {
		b = append(b, `,"degraded":true,"qualityBound":{"budget":`...)
		b = strconv.AppendInt(b, int64(qb.Budget), 10)
		b = append(b, `,"epsilon":`...)
		b = strconv.AppendInt(b, int64(qb.Epsilon), 10)
		b = append(b, `,"executed":`...)
		b = strconv.AppendInt(b, int64(qb.Executed), 10)
		b = append(b, `,"bestDistance":`...)
		b = strconv.AppendInt(b, int64(qb.BestDistance), 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendSubgraph(b []byte, e *mcs.Explanation) ([]byte, error) {
	var err error
	b = append(b, `{"mcs":`...)
	if b, err = appendQuery(b, e.MCS); err != nil {
		return nil, err
	}
	b = append(b, `,"differential":`...)
	if b, err = appendQuery(b, e.Differential); err != nil {
		return nil, err
	}
	b = append(b, `,"cardinality":`...)
	b = strconv.AppendInt(b, int64(e.Cardinality), 10)
	b = append(b, `,"satisfied":`...)
	b = strconv.AppendBool(b, e.Satisfied)
	b = append(b, `,"traversals":`...)
	b = strconv.AppendInt(b, int64(e.Traversals), 10)
	if len(e.Path) > 0 {
		b = append(b, `,"path":`...)
		b = appendInts(b, e.Path)
	}
	return append(b, '}'), nil
}

func appendRewriting(b []byte, rw *core.Rewriting) ([]byte, error) {
	var err error
	b = append(b, `{"query":`...)
	if b, err = appendQuery(b, rw.Query); err != nil {
		return nil, err
	}
	b = append(b, `,"ops":[`...)
	for i, op := range rw.Ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, op.String())
	}
	b = append(b, `],"cardinality":`...)
	b = strconv.AppendInt(b, int64(rw.Cardinality), 10)
	b = append(b, `,"syntacticDistance":`...)
	if b, err = appendFloat(b, rw.Syntactic); err != nil {
		return nil, err
	}
	b = append(b, `,"cardinalityDistance":`...)
	b = strconv.AppendInt(b, int64(rw.CardinalityDistance), 10)
	b = append(b, `,"resultDistance":`...)
	if b, err = appendFloat(b, rw.ResultDistance); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendQuery appends the encoding of FromQuery(q). A query without
// vertices encodes its vertex list as null, as a nil slice does.
func appendQuery(b []byte, q *query.Query) ([]byte, error) {
	var err error
	b = append(b, `{"vertices":`...)
	if q.NumVertices() == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range q.Vertices() {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, int64(v.ID), 10)
			if b, err = appendPreds(b, v.Preds); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if q.NumEdges() > 0 {
		b = append(b, `,"edges":[`...)
		for i, e := range q.Edges() {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, int64(e.ID), 10)
			b = append(b, `,"from":`...)
			b = strconv.AppendInt(b, int64(e.From), 10)
			b = append(b, `,"to":`...)
			b = strconv.AppendInt(b, int64(e.To), 10)
			if len(e.Types) > 0 {
				b = append(b, `,"types":[`...)
				for j, typ := range e.Types {
					if j > 0 {
						b = append(b, ',')
					}
					b = appendString(b, typ)
				}
				b = append(b, ']')
			}
			b = append(b, `,"dir":`...)
			b = appendString(b, e.Dirs.String())
			if b, err = appendPreds(b, e.Preds); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendPreds appends `,"preds":{…}` for a non-empty predicate map, its
// attributes in ascending order as encoding/json sorts map keys. The keys
// are sorted in a stack array: elements carry a handful of predicates.
func appendPreds(b []byte, preds map[string]query.Predicate) ([]byte, error) {
	if len(preds) == 0 {
		return b, nil
	}
	var stack [8]string
	keys := stack[:0]
	for k := range preds {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var err error
	b = append(b, `,"preds":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		if b, err = appendPredicate(b, preds[k]); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendPredicate appends the encoding of FromPredicate(p).
func appendPredicate(b []byte, p query.Predicate) ([]byte, error) {
	var err error
	if p.Kind == query.Range {
		b = append(b, `{"kind":"range"`...)
		if !math.IsInf(p.Lo, 0) {
			b = append(b, `,"lo":`...)
			if b, err = appendFloat(b, p.Lo); err != nil {
				return nil, err
			}
		}
		if !math.IsInf(p.Hi, 0) {
			b = append(b, `,"hi":`...)
			if b, err = appendFloat(b, p.Hi); err != nil {
				return nil, err
			}
		}
		if p.IncLo {
			b = append(b, `,"incLo":true`...)
		}
		if p.IncHi {
			b = append(b, `,"incHi":true`...)
		}
		return append(b, '}'), nil
	}
	b = append(b, `{"kind":"values"`...)
	if len(p.Vals) > 0 {
		b = append(b, `,"values":[`...)
		for i, v := range p.Vals {
			if i > 0 {
				b = append(b, ',')
			}
			// As FromValue: a kind other than number or bool is a string.
			switch v.Kind {
			case graph.KindNumber:
				b = append(b, `{"kind":"number"`...)
				if v.Num != 0 {
					b = append(b, `,"num":`...)
					if b, err = appendFloat(b, v.Num); err != nil {
						return nil, err
					}
				}
			case graph.KindBool:
				b = append(b, `{"kind":"bool"`...)
				if v.Bool {
					b = append(b, `,"bool":true`...)
				}
			default:
				b = append(b, `{"kind":"string"`...)
				if v.Str != "" {
					b = append(b, `,"str":`...)
					b = appendString(b, v.Str)
				}
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// AppendMatch appends the encoding of the MatchResponse answering a match:
// {"count":count} in count mode (rows nil), and in find mode the count plus
// one result object per row, each as FromResult encodes the same result
// graph. encoding/json orders a map's keys as strings, so query identifier
// 10 precedes 2; the column order that follows from it is worked out once
// per response, not per row.
func AppendMatch(dst []byte, count int, rows *match.Rows) []byte {
	b := append(dst, `{"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	if rows == nil || rows.Len() == 0 {
		return append(b, '}')
	}
	// Grow once for the typical row: a column is `"<id>":<data id>,` of
	// about a dozen bytes, a row's object syntax some two dozen more.
	b = slices.Grow(b, rows.Len()*(24+12*rows.Width()))
	nv := len(rows.VIDs)
	var stack [16]column
	cols := stack[:0]
	cols = appendColumns(cols, rows.VIDs, 0)
	cols = appendColumns(cols, rows.EIDs, nv)
	vcols, ecols := cols[:nv], cols[nv:]
	b = append(b, `,"results":[`...)
	for i := 0; i < rows.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		row := rows.Row(i)
		b = append(b, `{"vertices":`...)
		b = appendRow(b, vcols, row)
		if len(ecols) > 0 {
			b = append(b, `,"edges":`...)
			b = appendRow(b, ecols, row)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// column is one result column as a JSON object member: its query identifier
// in decimal, which is the member's key and its sort key, and its position
// in a row.
type column struct {
	key  string
	slot int
}

// appendColumns appends one column per identifier, the first at row
// position base, sorted by key.
func appendColumns(cols []column, ids []int, base int) []column {
	start := len(cols)
	for s, id := range ids {
		cols = append(cols, column{key: strconv.Itoa(id), slot: base + s})
	}
	slices.SortFunc(cols[start:], func(x, y column) int { return strings.Compare(x.key, y.key) })
	return cols
}

// appendRow appends one result map: {"<id>":<data id>,…} over cols.
func appendRow(b []byte, cols []column, row []int32) []byte {
	b = append(b, '{')
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, c.key...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, int64(row[c.slot]), 10)
	}
	return append(b, '}')
}

// AppendEnvelope appends the v1 success envelope around an encoded payload,
// {"requestId":…,"data":…} and a newline, the bytes the daemon answers.
// data must be compact JSON as encoding/json writes it; it is copied as is.
func AppendEnvelope(dst []byte, requestID string, data []byte) []byte {
	b := append(dst, `{"requestId":`...)
	b = appendString(b, requestID)
	b = append(b, `,"data":`...)
	b = append(b, data...)
	return append(b, "}\n"...)
}

func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation in 'f' format, switching to 'e' below 1e-6 and at or above
// 1e21, with a one-digit negative exponent unpadded (1e-7, not 1e-07). NaN
// and ±Inf are the error json.Marshal reports for them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json writes one:
// `"` and `\` escaped, \b \f \n \r \t by name, every other control byte and
// the HTML-sensitive <, > and & as \u00XX, U+2028 and U+2029 as \u2028 and
// \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
