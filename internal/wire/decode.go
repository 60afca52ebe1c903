package wire

// This file holds the request-side mirror of encode.go: a strict one-pass
// decoder of the two hot request bodies, ExplainRequest (POST /v1/explain
// and /v1/explain/stream) and MatchRequest (POST /v1/match), straight from
// the body's bytes. Nothing is reflected over, and no token stream or
// map[string]any is built on the way.
//
// The decoder is sound, not complete. A body it accepts is a body
// encoding/json accepts — with DisallowUnknownFields and nothing but
// whitespace after the value — into a reflect.DeepEqual value. Every other
// body it declines, and the caller hands it to encoding/json, which stays
// the reference for every value and every error. It declines:
//
//   - any null;
//   - a repeated object key;
//   - a struct key that is escaped or is not exactly a field's name
//     (encoding/json folds case);
//   - invalid UTF-8 and lone surrogates (encoding/json substitutes U+FFFD);
//   - an integer field whose text is not -?(0|[1-9][0-9]*) within int range;
//   - a number outside JSON's grammar, checked before strconv.ParseFloat
//     (which also takes "+1", "0x1p3", "Inf" and "1_0"), and one
//     ParseFloat finds out of range;
//   - anything but whitespace after the value.
//
// Every string of a decoded value is a copy, so the caller may reuse the
// body's buffer.

import (
	"bytes"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeExplainRequest decodes body into *req and reports whether it did.
// On false *req is untouched, and the body is encoding/json's to answer.
func DecodeExplainRequest(body []byte, req *ExplainRequest) bool {
	d := decoder{b: body}
	var r ExplainRequest
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "dataset":
			r.Dataset = d.string()
		case "builtin":
			r.Builtin = d.string()
		case "failing":
			r.Failing = d.bool()
		case "query":
			r.Query = d.query()
		case "lower":
			r.Lower = d.int()
		case "upper":
			r.Upper = d.int()
		case "maxRewritings":
			r.MaxRewritings = d.int()
		case "fineGrained":
			fg := d.bool()
			r.FineGrained = &fg
		case "allowTopology":
			r.AllowTopology = d.bool()
		case "budget":
			r.Budget = d.int()
		case "resultSample":
			r.ResultSample = d.int()
		case "timeoutMs":
			r.TimeoutMs = d.int()
		default:
			d.fail()
		}
	}
	if !d.end() {
		return false
	}
	*req = r
	return true
}

// DecodeMatchRequest decodes body into *req and reports whether it did.
// On false *req is untouched, and the body is encoding/json's to answer.
func DecodeMatchRequest(body []byte, req *MatchRequest) bool {
	d := decoder{b: body}
	var r MatchRequest
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "dataset":
			r.Dataset = d.string()
		case "builtin":
			r.Builtin = d.string()
		case "failing":
			r.Failing = d.bool()
		case "query":
			r.Query = d.query()
		case "mode":
			r.Mode = d.string()
		case "limit":
			r.Limit = d.int()
		case "countCap":
			r.CountCap = d.int()
		case "timeoutMs":
			r.TimeoutMs = d.int()
		default:
			d.fail()
		}
	}
	if !d.end() {
		return false
	}
	*req = r
	return true
}

func (d *decoder) query() *Query {
	q := new(Query)
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "vertices":
			q.Vertices = []Vertex{}
			for n := 0; d.more(n, '[', ']'); n++ {
				q.Vertices = append(q.Vertices, d.vertex())
			}
		case "edges":
			q.Edges = []Edge{}
			for n := 0; d.more(n, '[', ']'); n++ {
				q.Edges = append(q.Edges, d.edge())
			}
		default:
			d.fail()
		}
	}
	return q
}

func (d *decoder) vertex() Vertex {
	var v Vertex
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "id":
			v.ID = d.int()
		case "preds":
			v.Preds = d.preds()
		default:
			d.fail()
		}
	}
	return v
}

func (d *decoder) edge() Edge {
	var e Edge
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "id":
			e.ID = d.int()
		case "from":
			e.From = d.int()
		case "to":
			e.To = d.int()
		case "types":
			e.Types = []string{}
			for n := 0; d.more(n, '[', ']'); n++ {
				e.Types = append(e.Types, d.string())
			}
		case "dir":
			e.Dir = d.string()
		case "preds":
			e.Preds = d.preds()
		default:
			d.fail()
		}
	}
	return e
}

// preds reads a predicate map. Its keys are attribute names, unescaped like
// any string; an empty object is an empty map, as encoding/json makes it.
func (d *decoder) preds() map[string]Predicate {
	m := map[string]Predicate{}
	for n := 0; d.more(n, '{', '}'); n++ {
		attr := d.string()
		if _, dup := m[attr]; dup {
			d.fail()
		}
		d.colon()
		m[attr] = d.predicate()
	}
	return m
}

func (d *decoder) predicate() Predicate {
	var p Predicate
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "kind":
			p.Kind = d.string()
		case "values":
			p.Values = []Value{}
			for n := 0; d.more(n, '[', ']'); n++ {
				p.Values = append(p.Values, d.value())
			}
		case "lo":
			lo := d.float()
			p.Lo = &lo
		case "hi":
			hi := d.float()
			p.Hi = &hi
		case "incLo":
			p.IncLo = d.bool()
		case "incHi":
			p.IncHi = d.bool()
		default:
			d.fail()
		}
	}
	return p
}

func (d *decoder) value() Value {
	var v Value
	var o object
	for d.field(&o) {
		switch string(o.key) {
		case "kind":
			v.Kind = d.string()
		case "str":
			v.Str = d.string()
		case "num":
			v.Num = d.float()
		case "bool":
			v.Bool = d.bool()
		default:
			d.fail()
		}
	}
	return v
}

// decoder is a cursor over one body. The first thing it does not take
// declines the whole body: fail moves the cursor to the end, so every loop
// still reading stops at once.
type decoder struct {
	b        []byte
	i        int
	declined bool
	scratch  []byte // unquote's output, reused from string to string
}

func (d *decoder) fail() {
	d.declined = true
	d.i = len(d.b)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// skip consumes c if it is the next byte after whitespace.
func (d *decoder) skip(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) colon() {
	if !d.skip(':') {
		d.fail()
	}
}

// end reports whether the body was accepted: nothing declined and nothing
// but whitespace after the value.
func (d *decoder) end() bool {
	d.peek()
	return !d.declined && d.i == len(d.b)
}

// more moves to item n of the array or object delimited by open and close,
// consuming open before item 0 and the comma before any later item, and
// reports whether there is an item n; false at close.
func (d *decoder) more(n int, open, close byte) bool {
	if n == 0 && !d.skip(open) {
		d.fail()
		return false
	}
	if d.skip(close) {
		return false
	}
	if n > 0 && !d.skip(',') {
		d.fail()
	}
	return !d.declined
}

// maxFields is the most members a struct-typed object can hold without a
// repeat: ExplainRequest's twelve fields.
const maxFields = 12

// object is one struct-typed object being read: the keys of the members
// taken so far, to decline a repeat, and the current member's key.
type object struct {
	keys [maxFields][]byte
	n    int
	key  []byte
}

// field moves to the object's next member and reports whether there is
// one; its key is o.key and the cursor is on its value. The caller matches
// the key against its field names exactly, and declines any other.
func (d *decoder) field(o *object) bool {
	if !d.more(o.n, '{', '}') {
		return false
	}
	key, escaped := d.quoted()
	if escaped || o.n == maxFields {
		d.fail()
		return false
	}
	for _, k := range o.keys[:o.n] {
		if bytes.Equal(k, key) {
			d.fail()
			return false
		}
	}
	o.keys[o.n], o.key = key, key
	o.n++
	d.colon()
	return !d.declined
}

// quoted reads a string and returns its bytes between the quotes, in the
// body, and whether they hold an escape. It declines a raw control
// character and invalid UTF-8; escapes are checked by unquote.
func (d *decoder) quoted() (raw []byte, escaped bool) {
	if !d.skip('"') {
		d.fail()
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], escaped
		case c == '\\':
			escaped = true
			d.i += 2 // the escaped byte cannot end the string
		case c < ' ':
			d.fail()
			return nil, false
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.fail()
				return nil, false
			}
			d.i += size
		}
	}
	d.fail()
	return nil, false
}

// string reads a string into a copy of its own, or into the constant when
// it is one of the format's own words.
func (d *decoder) string() string {
	raw, escaped := d.quoted()
	if escaped {
		raw = d.unquote(raw)
	}
	for _, w := range words {
		if string(raw) == w {
			return w
		}
	}
	return string(raw)
}

// words are the string values the format itself defines: value and
// predicate kinds, edge directions and match modes.
var words = [...]string{"string", "number", "bool", "values", "range", "->", "<-", "--", "count", "find"}

// unquote resolves the escapes of raw into d.scratch and returns it,
// declining a malformed escape and a surrogate that is not half of a
// \u-escaped pair.
func (d *decoder) unquote(raw []byte) []byte {
	s := d.scratch[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			s = append(s, c)
			i++
			continue
		}
		switch raw[i+1] {
		case '"', '\\', '/':
			s = append(s, raw[i+1])
		case 'b':
			s = append(s, '\b')
		case 'f':
			s = append(s, '\f')
		case 'n':
			s = append(s, '\n')
		case 'r':
			s = append(s, '\r')
		case 't':
			s = append(s, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			if utf16.IsSurrogate(r) {
				low := rune(-1)
				if len(raw) >= i+12 && raw[i+6] == '\\' && raw[i+7] == 'u' {
					low = hex4(raw[i+8:])
				}
				if r = utf16.DecodeRune(r, low); r == utf8.RuneError {
					d.fail()
					return nil
				}
				i += 6
			}
			if r < 0 {
				d.fail()
				return nil
			}
			s = utf8.AppendRune(s, r)
			i += 4
		default:
			d.fail()
			return nil
		}
		i += 2
	}
	d.scratch = s
	return s
}

// hex4 returns the value of the four hex digits that start b, -1 if they
// do not.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func (d *decoder) bool() bool {
	d.peek()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += len("false")
		return false
	}
	d.fail()
	return false
}

// number reads a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text and
// whether it is an integer (no fraction, no exponent).
func (d *decoder) number() (text []byte, integer bool) {
	d.peek()
	start := d.i
	d.byte('-')
	if !d.byte('0') && d.digits() == 0 {
		d.fail()
		return nil, false
	}
	integer = true
	if d.byte('.') {
		integer = false
		if d.digits() == 0 {
			d.fail()
		}
	}
	if d.byte('e') || d.byte('E') {
		integer = false
		_ = d.byte('+') || d.byte('-')
		if d.digits() == 0 {
			d.fail()
		}
	}
	if d.declined {
		return nil, false
	}
	return d.b[start:d.i], integer
}

// byte consumes c if it is the very next byte; numbers hold no whitespace.
func (d *decoder) byte(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// int reads an integer as encoding/json does, by strconv.ParseInt of its
// text, declining a fraction or exponent ("1.0" and "1e2" are not ints to
// encoding/json) and what does not fit an int.
func (d *decoder) int() int {
	text, integer := d.number()
	if !integer {
		d.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, 0)
	if err != nil {
		d.fail()
	}
	return int(n)
}

// float reads a number as encoding/json does, by strconv.ParseFloat of its
// text, declining the text ParseFloat finds out of range.
func (d *decoder) float() float64 {
	text, _ := d.number()
	if d.declined {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		d.fail()
	}
	return f
}
