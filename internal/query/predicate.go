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

// maxSetWidth is the widest bounded range (hi − lo of its integer bounds)
// Distance compares as a set of integers; a wider or unbounded one is
// compared by interval measure.
const maxSetWidth = 1e6

// integerSet returns the integers a Range admits as the bounds lo..hi and
// their number n; ok is false when the range is unbounded or wider than
// maxSetWidth.
func (p Predicate) integerSet() (lo, hi float64, n int, ok bool) {
	lo, hi = p.integerBounds()
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi-lo > maxSetWidth {
		return 0, 0, 0, false
	}
	if lo <= hi {
		n = int(hi-lo) + 1
	}
	return lo, hi, n, true
}

// Distance computes the modified-Hausdorff set distance (Eq. 3.10 with the
// Boolean point-point distance of Eq. 3.8/3.9) between two predicate
// intervals, treating each as the set of values it admits: a disjunction's
// values, or the integers inside a bounded range. A range enters by its
// integer bounds alone, so a comparison involving one costs O(1) against a
// range and one pass (plus the duplicate check of an in-range value) against
// a disjunction, whatever its width. For ranges that cannot be compared as
// sets, the distance falls back to one minus the Jaccard measure of interval
// overlap, which preserves the MHD identity and range properties.
func (p Predicate) Distance(o Predicate) float64 {
	switch pr, or := p.Kind == Range, o.Kind == Range; {
	case !pr && !or:
		return mhdMissing(missing(p.Vals, o.Vals), len(p.Vals), missing(o.Vals, p.Vals), len(o.Vals))
	case pr && or:
		plo, phi, pn, pok := p.integerSet()
		olo, ohi, on, ook := o.integerSet()
		if pok && ook {
			both := 0
			if lo, hi := max(plo, olo), min(phi, ohi); lo <= hi {
				both = int(hi-lo) + 1
			}
			return mhdMissing(pn-both, pn, on-both, on)
		}
	default:
		r, d := p, o
		if or {
			r, d = o, p
		}
		if lo, hi, n, ok := r.integerSet(); ok {
			hit, outside := rangeHits(d.Vals, lo, hi)
			return mhdMissing(n-hit, n, outside, len(d.Vals))
		}
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

// mhdMissing is MHD(A,B) = max(missA/lenA, missB/lenB), where missA of A's
// lenA members are absent from B and missB of B's lenB members from A. Two
// empty sets are at distance 0, an empty and a non-empty one at 1.
func mhdMissing(missA, lenA, missB, lenB int) float64 {
	if lenA == 0 && lenB == 0 {
		return 0
	}
	if lenA == 0 || lenB == 0 {
		return 1
	}
	return math.Max(float64(missA)/float64(lenA), float64(missB)/float64(lenB))
}

// missing counts the members of xs (a repeated one each time) absent from ys.
func missing(xs, ys []graph.Value) int {
	m := 0
	for _, x := range xs {
		if !slices.Contains(ys, x) {
			m++
		}
	}
	return m
}

// rangeHits splits a disjunction against the integers lo..hi: hit is how
// many distinct integers of the range it names, outside how many of its
// values (a repeated one each time) lie outside the range. A value names an
// integer only as the plain number graph.N of it.
func rangeHits(vals []graph.Value, lo, hi float64) (hit, outside int) {
	for i, v := range vals {
		x := v.Num
		if v != graph.N(x) || !(x >= lo && x <= hi) || x != math.Trunc(x) {
			outside++
		} else if !slices.Contains(vals[:i], v) {
			hit++
		}
	}
	return hit, outside
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
