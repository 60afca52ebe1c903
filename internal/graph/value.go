package graph

import (
	"fmt"
	"strconv"
)

// ValueKind discriminates the dynamic type of an attribute Value.
type ValueKind uint8

const (
	// KindString is a categorical attribute value.
	KindString ValueKind = iota
	// KindNumber is a numeric attribute value (stored as float64).
	KindNumber
	// KindBool is a Boolean attribute value.
	KindBool
)

// Value is a single attribute value of a vertex or an edge in a property
// graph. It is a small tagged union over the three value domains used by the
// thesis' data sets (categorical, numeric, Boolean). Value is comparable and
// can be used as a map key.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
	Bool bool
}

// S returns a categorical (string) value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// N returns a numeric value.
func N(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// B returns a Boolean value.
func B(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Equal reports whether two values are identical in kind and content.
func (v Value) Equal(o Value) bool { return v == o }

// Less defines a total order over values: kinds order before content,
// numbers by magnitude, strings lexicographically, false before true.
func (v Value) Less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	switch v.Kind {
	case KindNumber:
		return v.Num < o.Num
	case KindString:
		return v.Str < o.Str
	default:
		return !v.Bool && o.Bool
	}
}

// String renders the value for query text and debug output.
func (v Value) String() string {
	switch v.Kind {
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return v.Str
	}
}

// GoString implements fmt.GoStringer for readable test failures.
func (v Value) GoString() string {
	switch v.Kind {
	case KindNumber:
		return fmt.Sprintf("graph.N(%v)", v.Num)
	case KindBool:
		return fmt.Sprintf("graph.B(%v)", v.Bool)
	default:
		return fmt.Sprintf("graph.S(%q)", v.Str)
	}
}

// Attrs is the attribute map of a vertex or edge: key → value — the input
// of AddVertex and AddEdge, and what VertexAttrs and EdgeAttrs decode.
type Attrs map[string]Value
