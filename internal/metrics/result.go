package metrics

import (
	"math"

	"repro/internal/match"
)

// ResultGraphDistance computes the distance between two result graphs
// (Definition 7): a graph edit distance over the query-identifier-aligned
// mappings, normalized by the total number of distinct query elements bound
// in either result. Elements bound in both results with different data
// identifiers cost one relabeling; elements bound in only one result cost
// one deletion or insertion.
func ResultGraphDistance(r1, r2 match.Result) float64 {
	var ged, elems int
	for q, d1 := range r1.VertexMap {
		elems++
		if d2, ok := r2.VertexMap[q]; !ok || d1 != d2 {
			ged++
		}
	}
	for q := range r2.VertexMap {
		if _, both := r1.VertexMap[q]; !both {
			elems++
			ged++
		}
	}
	for q, d1 := range r1.EdgeMap {
		elems++
		if d2, ok := r2.EdgeMap[q]; !ok || d1 != d2 {
			ged++
		}
	}
	for q := range r2.EdgeMap {
		if _, both := r1.EdgeMap[q]; !both {
			elems++
			ged++
		}
	}
	if elems == 0 {
		return 0
	}
	return float64(ged) / float64(elems)
}

// ResultScratch is the working memory of RowSetDistance: the column
// alignment, the edit-distance matrix and the assignment solver's arrays. A
// kept value computes distances without allocating; the zero value is ready
// to use. Not safe for concurrent use.
type ResultScratch struct {
	shared []colPair
	cost   []int32
	asg    assigner[int32]
}

// colPair is one query element both sets bind: its column in either.
type colPair struct{ a, b int }

// RowSetDistance compares the result set of an explanation against the
// result set of the original query (§3.2.4): the pairwise result-graph
// distances (Definition 7) form a cost matrix, the assignment problem of
// Definition 8 is solved with the Hungarian method (Algorithm 2), and the
// optimal total is normalized so the distance lies in [0, 1]. Results left
// unmatched (different set sizes) cost the maximal distance 1. A comparison
// against an empty set yields the maximal distance 1, matching the thesis'
// convention that an explanation with an empty result is completely
// different; two empty sets are identical (0).
//
// All results of one set bind the same query elements, so the element count
// E of Definition 7's denominator is one number for the whole matrix, and an
// element only one set binds costs every pair the same edit. The kernel
// therefore aligns the columns once, fills the matrix with integer edit
// counts (mismatches on the shared columns plus the unshared count), solves
// the rectangular problem with the smaller set as rows — warm-started
// shortest augmenting paths, O(min²·max) at worst; the max−min results left
// over cost E edits each, which is Algorithm 2's Step 0 padding without the
// padded matrix — and divides once, by E·max. The value is a function of the
// two result multisets alone: no order of enumeration or tie between equally
// good assignments can move its last bits.
func (s *ResultScratch) RowSetDistance(a, b *match.Rows) float64 {
	if a.Len() > b.Len() {
		a, b = b, a
	}
	na, nb := a.Len(), b.Len()
	if nb == 0 {
		return 0
	}
	if na == 0 {
		return 1
	}
	unshared := s.align(a, b)
	elems := len(s.shared) + unshared
	if elems == 0 {
		// Nothing is bound on either side: all pairs are at distance 0.
		return float64(nb-na) / float64(nb)
	}
	if cap(s.cost) < na*nb {
		s.cost = make([]int32, na*nb)
	}
	cost := s.cost[:na*nb]
	wa, wb := a.Width(), b.Width()
	for i := 0; i < na; i++ {
		ra, out := a.IDs[i*wa:(i+1)*wa], cost[i*nb:(i+1)*nb]
		for j := range out {
			rb := b.IDs[j*wb : (j+1)*wb]
			d := unshared
			for _, c := range s.shared {
				if ra[c.a] != rb[c.b] {
					d++
				}
			}
			out[j] = int32(d)
		}
	}
	edits := int(s.asg.solve(cost, na, nb, math.MaxInt32)) + (nb-na)*elems
	return float64(edits) / float64(elems*nb)
}

// align records the columns a and b share in s.shared and returns how many
// columns only one of them has.
func (s *ResultScratch) align(a, b *match.Rows) (unshared int) {
	s.shared = appendShared(s.shared[:0], a.VIDs, b.VIDs, 0, 0)
	s.shared = appendShared(s.shared, a.EIDs, b.EIDs, len(a.VIDs), len(b.VIDs))
	return a.Width() + b.Width() - 2*len(s.shared)
}

// appendShared appends a column pair for every id in both headers, the
// columns counted from the given offsets. Headers are a handful of ids, so
// the lookup is a scan.
func appendShared(dst []colPair, as, bs []int, offA, offB int) []colPair {
	for i, id := range as {
		for j, other := range bs {
			if id == other {
				dst = append(dst, colPair{offA + i, offB + j})
				break
			}
		}
	}
	return dst
}

// ResultSetDistance is RowSetDistance for callers that hold result graphs:
// both sets are put into row form, then compared by the kernel. The results
// of one set must bind the same query elements, as the results of one query
// do.
func ResultSetDistance(orig, expl []match.Result) float64 {
	var a, b match.Rows
	a.SetResults(orig)
	b.SetResults(expl)
	var s ResultScratch
	return s.RowSetDistance(&a, &b)
}
