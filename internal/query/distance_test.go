package query

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// refEnumerableValues, refDistance and refSetMHD are Distance as it was
// computed before it worked from counts: a bounded range of width ≤ 10⁶ is
// materialised as its integers and every set is compared value by value.
// Distance must agree with them bit for bit.
func refEnumerableValues(p Predicate) (vals []graph.Value, ok bool) {
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

func refDistance(p, o Predicate) float64 {
	pv, pok := refEnumerableValues(p)
	ov, ook := refEnumerableValues(o)
	if pok && ook {
		return refSetMHD(pv, ov)
	}
	if p.Equal(o) {
		return 0
	}
	if p.Kind == Range && o.Kind == Range {
		if math.IsInf(p.Lo, -1) && math.IsInf(o.Lo, -1) && p.Hi != o.Hi {
			return 1
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

func refSetMHD(a, b []graph.Value) float64 {
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
				if x == y {
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

// randomRange draws a range whose integer width is at most about maxWidth:
// empty, one point, open and closed ends, -0 and fractional bounds, and
// half-lines.
func randomRange(rng *rand.Rand, maxWidth float64) Predicate {
	lo := float64(rng.Intn(30) - 10)
	switch rng.Intn(8) {
	case 0:
		lo = math.Copysign(0, -1)
	case 1:
		lo += 0.5
	}
	var hi float64
	switch rng.Intn(8) {
	case 0:
		hi = lo // one point, or empty when an end is open
	case 1:
		hi = lo - float64(1+rng.Intn(3)) // empty
	case 2:
		hi = math.Inf(1)
	default:
		hi = lo + math.Floor(rng.Float64()*maxWidth)
		if rng.Intn(4) == 0 {
			hi += 0.25
		}
	}
	if rng.Intn(10) == 0 {
		lo = math.Inf(-1)
	}
	return Predicate{Kind: Range, Lo: lo, Hi: hi, IncLo: rng.Intn(2) == 0, IncHi: rng.Intn(2) == 0}
}

// randomValues draws a raw disjunction — unsorted, repeats kept — over
// integers near the ranges, -0, fractions, NaN, strings, Booleans and a
// number carrying a stray string.
func randomValues(rng *rand.Rand) Predicate {
	vals := make([]graph.Value, rng.Intn(7))
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = graph.N(math.Copysign(0, -1))
		case 1:
			vals[i] = graph.N(float64(rng.Intn(40)-10) + 0.5)
		case 2:
			vals[i] = graph.S("3")
		case 3:
			vals[i] = graph.B(true)
		case 4:
			vals[i] = graph.N(math.NaN())
		case 5:
			vals[i] = graph.Value{Kind: graph.KindNumber, Num: 3, Str: "x"}
		case 6:
			if i > 0 {
				vals[i] = vals[rng.Intn(i)] // a repeat
				continue
			}
			fallthrough
		default:
			vals[i] = graph.N(float64(rng.Intn(40) - 10))
		}
	}
	return Predicate{Kind: Values, Vals: vals}
}

func checkDistance(t *testing.T, p, o Predicate) {
	t.Helper()
	if got, want := p.Distance(o), refDistance(p, o); got != want {
		t.Fatalf("Distance(%v %+v, %v %+v) = %v, reference %v", p, p, o, o, got, want)
	}
}

// TestDistanceAgainstEnumeration compares Distance with the enumerating
// reference on random ranges × ranges, × disjunctions and disjunctions ×
// disjunctions, and on ranges on both sides of the 10⁶-width threshold.
func TestDistanceAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20000; i++ {
		var p, o Predicate
		switch i % 3 {
		case 0:
			p, o = randomRange(rng, 40), randomRange(rng, 40)
		case 1:
			p, o = randomRange(rng, 40), randomValues(rng)
		default:
			p, o = randomValues(rng), randomValues(rng)
		}
		checkDistance(t, p, o)
		checkDistance(t, o, p)
	}

	// Around the threshold: integer widths 10⁶ (a set) and 10⁶ + 1 (an
	// interval), each against a short range, a disjunction and the other.
	if testing.Short() {
		t.Skip("enumerating million-value ranges")
	}
	set := Between(-3, 1e6-3)
	interval := Predicate{Kind: Range, Lo: -3.5, Hi: 1e6 - 2, IncHi: true}
	short := Between(-5, 5)
	disj := Predicate{Kind: Values, Vals: []graph.Value{graph.N(7), graph.N(-4), graph.N(7), graph.N(1e6 - 3), graph.N(1e6 - 2), graph.S("x")}}
	for _, wide := range []Predicate{set, interval} {
		checkDistance(t, wide, short)
		checkDistance(t, disj, wide)
	}
	checkDistance(t, set, interval)
}
