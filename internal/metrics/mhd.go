// Package metrics implements the comprehensive explanation-comparison model
// of Chapter 3: the syntactic distance over the set-based query model
// (§3.2.2, Eq. 3.10–3.13, Algorithm 1), the cardinality distance (§3.2.3,
// Definition 5), and the result distance (§3.2.4, Definitions 6–8) — a
// normalized graph edit distance per result pair and an optimal Hungarian
// assignment (Algorithm 2) between result sets.
//
// The result distance runs on result sets in row form (match.Rows: a column
// header of query ids and fixed-width tuples of data ids). RowSetDistance
// aligns the columns of the two sets once, fills a flat matrix of integer
// edit counts, solves the rectangular assignment with the smaller set as
// rows — O(min²·max), the leftover results charged as a constant instead of
// padding the matrix to a square — and normalizes with one division, so the
// value is a function of the two result multisets alone. Its working memory
// is a caller-kept ResultScratch; ResultSetDistance is the same kernel for
// callers that hold []match.Result, and Assign the same solver body on
// float64 costs.
package metrics

import (
	"math"
	"slices"
)

// MHDInts computes the modified Hausdorff distance (Eq. 3.10) between two
// identifier sets with the Boolean point-set distance of Eq. 3.9:
// d(a,B) = 0 if a ∈ B else 1. Two empty sets are at distance 0; an empty set
// against a non-empty one is at distance 1.
func MHDInts(a, b []int) float64 { return mhd(a, b) }

// MHDStrings is MHDInts over string sets (used for edge-type disjunctions).
func MHDStrings(a, b []string) float64 { return mhd(a, b) }

func mhd[T comparable](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	return math.Max(fracMissing(a, b), fracMissing(b, a))
}

// mhdCounts is mhd over two sets without repeats, from their sizes and the
// size of their intersection.
func mhdCounts(a, b, both int) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	if a == 0 || b == 0 {
		return 1
	}
	return math.Max(float64(a-both)/float64(a), float64(b-both)/float64(b))
}

// fracMissing is the share of xs absent from ys. The sets of the query model
// — a vertex's IN/OUT edge ids, an edge's types — hold a handful of members,
// so membership is a scan.
func fracMissing[T comparable](xs, ys []T) float64 {
	miss := 0
	for _, x := range xs {
		if !slices.Contains(ys, x) {
			miss++
		}
	}
	return float64(miss) / float64(len(xs))
}
