package metrics

import (
	"math/bits"
	"slices"

	"repro/internal/query"
)

// SyntacticDistance computes the fine-grained syntactic distance between an
// original query q1 and an explanation q2 following Algorithm 1: modified
// Hausdorff distances over every subset of the set-based query model
// (predicate intervals, IN/OUT edge-id sets, type disjunctions, direction
// sets, endpoint identifiers), aggregated per vertex (Eq. 3.11), per edge
// (Eq. 3.12), and over the whole query (Eq. 3.13). The result lies in [0,1]:
// 0 for identical queries, 1 when nothing is shared.
//
// It is one ordered walk of both queries' elements and allocates nothing
// (Predicate.Distance does, when it enumerates a bounded range). Every sum
// is taken in a fixed order — q1's vertices by id, then those only q2 has,
// the edges likewise, attributes ascending — so the value is a function of
// the two queries. An element both queries share by pointer (a copy-on-write
// candidate against the root it derives from) is at distance 0 from itself
// and is not walked.
func SyntacticDistance(q1, q2 *query.Query) float64 {
	e1, e2 := q1.Edges(), q2.Edges()
	total, nv := sumMatched(0, q1.Vertices(), q2.Vertices(), func(v *query.Vertex) int { return v.ID },
		func(a, b *query.Vertex) float64 { return vertexDistance(a, b, e1, e2) })
	total, ne := sumMatched(total, e1, e2, func(e *query.Edge) int { return e.ID }, edgeDistance)
	if nv+ne == 0 {
		return 0
	}
	return total / float64(nv+ne)
}

// sumMatched adds to total the distance of every element of the id-ordered a
// and b — dist for an id both hold; the maximal distance 1 for an element
// only one holds (Algorithm 1, lines 5–8) — a's in order, then those only b
// has, and counts the elements.
func sumMatched[E any](total float64, a, b []E, id func(E) int, dist func(x, y E) float64) (float64, int) {
	shared, j := 0, 0
	for _, x := range a {
		for j < len(b) && id(b[j]) < id(x) {
			j++
		}
		d := 1.0
		if j < len(b) && id(b[j]) == id(x) {
			d = dist(x, b[j])
			shared++
		}
		total += d
	}
	for n := len(b) - shared; n > 0; n-- {
		total++
	}
	return total, len(a) + len(b) - shared
}

// vertexDistance implements Eq. 3.11 for a vertex both queries hold, as a in
// the query with edges e1 and as b in the one with edges e2.
func vertexDistance(a, b *query.Vertex, e1, e2 []*query.Edge) float64 {
	sum, keys := 0.0, len(a.Preds)
	if a != b {
		sum, keys = predsDistance(a.Preds, b.Preds)
	}
	// IN and OUT (Eq. 3.4) straight off the id-ordered edges: how many edges
	// end (start) at the vertex in each query, and how many in both.
	var in1, in2, inBoth, out1, out2, outBoth int
	j := 0
	for _, x := range e1 {
		for ; j < len(e2) && e2[j].ID < x.ID; j++ {
			in2, out2 = in2+btoi(e2[j].To == a.ID), out2+btoi(e2[j].From == a.ID)
		}
		in, out := x.To == a.ID, x.From == a.ID
		in1, out1 = in1+btoi(in), out1+btoi(out)
		if j < len(e2) && e2[j].ID == x.ID {
			y := e2[j]
			in2, out2 = in2+btoi(y.To == a.ID), out2+btoi(y.From == a.ID)
			inBoth, outBoth = inBoth+btoi(in && y.To == a.ID), outBoth+btoi(out && y.From == a.ID)
			j++
		}
	}
	for ; j < len(e2); j++ {
		in2, out2 = in2+btoi(e2[j].To == a.ID), out2+btoi(e2[j].From == a.ID)
	}
	sum += mhdCounts(in1, in2, inBoth)
	sum += mhdCounts(out1, out2, outBoth)
	return sum / float64(keys+2)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// edgeDistance implements Eq. 3.12 for an edge both queries hold.
func edgeDistance(e1, e2 *query.Edge) float64 {
	if e1 == e2 {
		return 0
	}
	sum, keys := predsDistance(e1.Preds, e2.Preds)
	sum += MHDStrings(e1.Types, e2.Types)
	// The direction sets (at most two members), compared as bits.
	d1, d2 := uint8(e1.Dirs&query.Both), uint8(e2.Dirs&query.Both)
	sum += mhdCounts(bits.OnesCount8(d1), bits.OnesCount8(d2), bits.OnesCount8(d1&d2))
	if e1.From != e2.From {
		sum++
	}
	if e1.To != e2.To {
		sum++
	}
	return sum / float64(keys+4)
}

// predsDistance sums the distances of the predicate intervals of every
// attribute either set constrains, in ascending attribute order; a predicate
// present on only one side is at distance 1. keys counts those attributes.
func predsDistance(p1, p2 map[string]query.Predicate) (sum float64, keys int) {
	var stack [16]string
	attrs := stack[:0]
	for k := range p1 {
		attrs = append(attrs, k)
	}
	for k := range p2 {
		if _, both := p1[k]; !both {
			attrs = append(attrs, k)
		}
	}
	slices.Sort(attrs)
	for _, k := range attrs {
		a, ok1 := p1[k]
		b, ok2 := p2[k]
		if ok1 && ok2 {
			sum += a.Distance(b)
		} else {
			sum++
		}
	}
	return sum, len(attrs)
}
