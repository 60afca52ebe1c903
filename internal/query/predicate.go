package query

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// PredKind discriminates the form of a predicate interval.
type PredKind uint8

const (
	// Values is a disjunction of concrete attribute values (Eq. 3.2):
	// pi = pv1 ∨ pv2 ∨ ... ∨ pvn.
	Values PredKind = iota
	// Range is a numeric predicate interval with lower and upper bounds,
	// e.g. 1 < age < 4 represented as age ∈ (1;4).
	Range
)

// Predicate is a predicate interval of the set-based query model (§3.2.2):
// the set of values an attribute may take. Predicates appear on query
// vertices and edges keyed by attribute name.
type Predicate struct {
	Kind PredKind

	// Vals holds the value disjunction when Kind == Values.
	Vals []graph.Value

	// Lo/Hi with inclusivity flags describe the interval when Kind == Range.
	Lo, Hi       float64
	IncLo, IncHi bool
}

// In returns a value-disjunction predicate over the given values. A predicate
// interval is a set (Eq. 3.2): a repeated value counts once.
func In(vals ...graph.Value) Predicate {
	c := make([]graph.Value, len(vals))
	copy(c, vals)
	sortValues(c)
	return Predicate{Kind: Values, Vals: slices.Compact(c)}
}

// Eq returns a predicate matching exactly one value.
func Eq(v graph.Value) Predicate { return In(v) }

// EqS returns a predicate matching exactly one string value.
func EqS(s string) Predicate { return In(graph.S(s)) }

// EqN returns a predicate matching exactly one numeric value.
func EqN(f float64) Predicate { return In(graph.N(f)) }

// Between returns a closed numeric range predicate lo <= x <= hi.
func Between(lo, hi float64) Predicate {
	return Predicate{Kind: Range, Lo: lo, Hi: hi, IncLo: true, IncHi: true}
}

// Open returns an open numeric range predicate lo < x < hi, matching the
// thesis' example 1 < age < 4 ⇒ age ∈ (1;4).
func Open(lo, hi float64) Predicate {
	return Predicate{Kind: Range, Lo: lo, Hi: hi}
}

// AtLeast returns lo <= x.
func AtLeast(lo float64) Predicate {
	return Predicate{Kind: Range, Lo: lo, Hi: math.Inf(1), IncLo: true, IncHi: true}
}

// AtMost returns x <= hi.
func AtMost(hi float64) Predicate {
	return Predicate{Kind: Range, Lo: math.Inf(-1), Hi: hi, IncLo: true, IncHi: true}
}

// Matches reports whether the data value satisfies the predicate interval.
func (p Predicate) Matches(v graph.Value) bool {
	switch p.Kind {
	case Range:
		if v.Kind != graph.KindNumber {
			return false
		}
		if v.Num < p.Lo || (v.Num == p.Lo && !p.IncLo) {
			return false
		}
		if v.Num > p.Hi || (v.Num == p.Hi && !p.IncHi) {
			return false
		}
		return true
	default:
		for _, pv := range p.Vals {
			if pv == v {
				return true
			}
		}
		return false
	}
}

// Clone returns a deep copy.
func (p Predicate) Clone() Predicate {
	if p.Kind == Values {
		c := make([]graph.Value, len(p.Vals))
		copy(c, p.Vals)
		p.Vals = c
	}
	return p
}

// Equal reports structural equality.
func (p Predicate) Equal(o Predicate) bool {
	if p.Kind != o.Kind {
		return false
	}
	if p.Kind == Range {
		return p.Lo == o.Lo && p.Hi == o.Hi && p.IncLo == o.IncLo && p.IncHi == o.IncHi
	}
	if len(p.Vals) != len(o.Vals) {
		return false
	}
	for i := range p.Vals {
		if p.Vals[i] != o.Vals[i] {
			return false
		}
	}
	return true
}

// AddValue returns a copy of the predicate extended with one more value in
// its disjunction (a concretization→relaxation pair building block used by
// the fine-grained modification of Chapter 6). Range predicates are widened
// to include the value instead.
func (p Predicate) AddValue(v graph.Value) Predicate {
	switch p.Kind {
	case Range:
		q := p
		if v.Kind == graph.KindNumber {
			if v.Num < q.Lo {
				q.Lo, q.IncLo = v.Num, true
			}
			if v.Num > q.Hi {
				q.Hi, q.IncHi = v.Num, true
			}
		}
		return q
	default:
		if p.Matches(v) {
			return p.Clone()
		}
		q := p.Clone()
		q.Vals = append(q.Vals, v)
		sortValues(q.Vals)
		return q
	}
}

// RemoveValue returns a copy with the value removed from the disjunction.
// The second result is false if the value was not present or removing it
// would empty the predicate.
func (p Predicate) RemoveValue(v graph.Value) (Predicate, bool) {
	if p.Kind != Values {
		return p, false
	}
	idx := -1
	for i, pv := range p.Vals {
		if pv == v {
			idx = i
			break
		}
	}
	if idx < 0 || len(p.Vals) == 1 {
		return p, false
	}
	q := p.Clone()
	q.Vals = append(q.Vals[:idx], q.Vals[idx+1:]...)
	return q, true
}

// Size returns the number of values in the disjunction, or the integer width
// of a numeric range (used by statistics and the distance model; the thesis
// enumerates integer values inside predicate intervals, cf. age ∈ (1;4) =
// {2,3}).
func (p Predicate) Size() int {
	switch p.Kind {
	case Range:
		lo, hi := p.integerBounds()
		if hi < lo {
			return 0
		}
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return math.MaxInt32
		}
		return int(hi-lo) + 1
	default:
		return len(p.Vals)
	}
}

// integerBounds returns the smallest and largest integers inside a Range.
func (p Predicate) integerBounds() (lo, hi float64) {
	lo = math.Ceil(p.Lo)
	if lo == p.Lo && !p.IncLo {
		lo++
	}
	hi = math.Floor(p.Hi)
	if hi == p.Hi && !p.IncHi {
		hi--
	}
	return lo, hi
}

// EnumerableValues returns the concrete values of the predicate: the
// disjunction itself, or the integers inside a bounded range. ok is false
// for unbounded ranges.
func (p Predicate) EnumerableValues() (vals []graph.Value, ok bool) {
	switch p.Kind {
	case Range:
		lo, hi := p.integerBounds()
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi-lo > 1e6 {
			return nil, false
		}
		for x := lo; x <= hi; x++ {
			vals = append(vals, graph.N(x))
		}
		return vals, true
	default:
		return p.Vals, true
	}
}

// Distance computes the modified-Hausdorff set distance (Eq. 3.10 with the
// Boolean point-point distance of Eq. 3.8/3.9) between two predicate
// intervals, treating each as the set of values it admits. For ranges that
// cannot be enumerated, the distance falls back to one minus the Jaccard
// measure of interval overlap, which preserves the MHD identity and range
// properties.
func (p Predicate) Distance(o Predicate) float64 {
	pv, pok := p.EnumerableValues()
	ov, ook := o.EnumerableValues()
	if pok && ook {
		return setMHD(pv, ov, func(a, b graph.Value) bool { return a == b })
	}
	if p.Equal(o) {
		return 0
	}
	// Unbounded-range fallback: Jaccard over interval measure.
	if p.Kind == Range && o.Kind == Range {
		if math.IsInf(p.Lo, -1) && math.IsInf(o.Lo, -1) && p.Hi != o.Hi {
			return 1 // half-lines with different finite bound: incomparable measure
		}
		if math.IsInf(p.Hi, 1) && math.IsInf(o.Hi, 1) && p.Lo != o.Lo {
			return 1
		}
		interLo := math.Max(p.Lo, o.Lo)
		interHi := math.Min(p.Hi, o.Hi)
		inter := math.Max(0, interHi-interLo)
		union := (p.Hi - p.Lo) + (o.Hi - o.Lo) - inter
		if union <= 0 || math.IsInf(union, 0) || math.IsNaN(union) {
			return 1
		}
		return 1 - inter/union
	}
	return 1
}

// setMHD is MHD(A,B) = max( mean_{a∈A} [a ∉ B], mean_{b∈B} [b ∉ A] ).
func setMHD(a, b []graph.Value, eq func(x, y graph.Value) bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	miss := func(xs, ys []graph.Value) float64 {
		var m int
		for _, x := range xs {
			found := false
			for _, y := range ys {
				if eq(x, y) {
					found = true
					break
				}
			}
			if !found {
				m++
			}
		}
		return float64(m) / float64(len(xs))
	}
	return math.Max(miss(a, b), miss(b, a))
}

// String renders the predicate in query-text form.
func (p Predicate) String() string {
	var b strings.Builder
	p.writeTo(&b)
	return b.String()
}

// writeTo renders the predicate into b without fmt — Canonical calls this on
// every element of every deduplicated candidate query.
func (p Predicate) writeTo(b *strings.Builder) {
	switch p.Kind {
	case Range:
		if p.IncLo {
			b.WriteByte('[')
		} else {
			b.WriteByte('(')
		}
		b.WriteString(strconv.FormatFloat(p.Lo, 'g', -1, 64))
		b.WriteByte(';')
		b.WriteString(strconv.FormatFloat(p.Hi, 'g', -1, 64))
		if p.IncHi {
			b.WriteByte(']')
		} else {
			b.WriteByte(')')
		}
	default:
		for i, v := range p.Vals {
			if i > 0 {
				b.WriteString(" OR ")
			}
			b.WriteString(v.String())
		}
	}
}

func sortValues(vals []graph.Value) {
	sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
}
