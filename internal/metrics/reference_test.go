package metrics

import (
	"math"

	"repro/internal/match"
)

// The result distance as it was computed before the row-form kernel: a
// map-based Definition 7 per pair, a float matrix padded to a square with
// cost 1 (Algorithm 2, Step 0), the O(n³) Hungarian method on it, and a
// float sum normalized by the larger set. Kept, unchanged, as the reference
// the kernel is fuzzed against.

// refResultGraphDistance computes the distance between two result graphs
// (Definition 7): a graph edit distance over the query-identifier-aligned
// mappings, normalized by the total number of distinct query elements bound
// in either result. Elements bound in both results with different data
// identifiers cost one relabeling; elements bound in only one result cost
// one deletion or insertion.
func refResultGraphDistance(r1, r2 match.Result) float64 {
	var ged, elems int
	// Vertices.
	seenV := make(map[int]struct{}, len(r1.VertexMap)+len(r2.VertexMap))
	for q, d1 := range r1.VertexMap {
		seenV[q] = struct{}{}
		elems++
		if d2, ok := r2.VertexMap[q]; !ok || d1 != d2 {
			ged++
		}
	}
	for q := range r2.VertexMap {
		if _, dup := seenV[q]; !dup {
			elems++
			ged++
		}
	}
	// Edges.
	seenE := make(map[int]struct{}, len(r1.EdgeMap)+len(r2.EdgeMap))
	for q, d1 := range r1.EdgeMap {
		seenE[q] = struct{}{}
		elems++
		if d2, ok := r2.EdgeMap[q]; !ok || d1 != d2 {
			ged++
		}
	}
	for q := range r2.EdgeMap {
		if _, dup := seenE[q]; !dup {
			elems++
			ged++
		}
	}
	if elems == 0 {
		return 0
	}
	return float64(ged) / float64(elems)
}

// refResultSetDistance compares the result set of an explanation against the
// result set of the original query (§3.2.4): the pairwise result-graph
// distances form a cost matrix, the generalized assignment problem
// (Definition 8) is solved with the Hungarian method (Algorithm 2), and the
// optimal total cost is normalized so the distance lies in [0, 1]. Results
// left unmatched (different set sizes) cost the maximal distance 1. A
// comparison against or between empty sets yields the maximal distance 1,
// matching the thesis' convention that an explanation with an empty result
// is completely different; two empty sets are identical (0).
func refResultSetDistance(orig, expl []match.Result) float64 {
	if len(orig) == 0 && len(expl) == 0 {
		return 0
	}
	if len(orig) == 0 || len(expl) == 0 {
		return 1
	}
	cost := make([][]float64, len(orig))
	for i, r1 := range orig {
		cost[i] = make([]float64, len(expl))
		for j, r2 := range expl {
			cost[i][j] = refResultGraphDistance(r1, r2)
		}
	}
	_, total := refAssignRect(cost, 1)
	size := len(orig)
	if len(expl) > size {
		size = len(expl)
	}
	return total / float64(size)
}

// refAssign solves the minimum-cost assignment problem for a square cost matrix
// (the Hungarian method, Algorithm 2 of the thesis, here in the O(n³)
// potential formulation). It returns the column assigned to each row and the
// total cost of the optimal assignment.
func refAssign(cost [][]float64) (rowToCol []int, total float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	const inf = math.MaxFloat64
	// 1-based arrays per the classic formulation.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row assigned to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			var delta float64 = inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	rowToCol = make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][rowToCol[i]]
	}
	return rowToCol, total
}

// refAssignRect solves the assignment problem for a rectangular matrix by
// padding it to a square with the given pad cost (Algorithm 2, Step 0: for
// m > n, m−n columns with d = 1 are inserted; symmetrically for n > m).
// Rows or columns matched to padding are reported as -1 in the assignment.
func refAssignRect(cost [][]float64, pad float64) (rowToCol []int, total float64) {
	m := len(cost)
	if m == 0 {
		return nil, 0
	}
	n := len(cost[0])
	size := m
	if n > size {
		size = n
	}
	sq := make([][]float64, size)
	for i := range sq {
		sq[i] = make([]float64, size)
		for j := range sq[i] {
			if i < m && j < n {
				sq[i][j] = cost[i][j]
			} else {
				sq[i][j] = pad
			}
		}
	}
	asg, total := refAssign(sq)
	rowToCol = make([]int, m)
	for i := 0; i < m; i++ {
		if asg[i] < n {
			rowToCol[i] = asg[i]
		} else {
			rowToCol[i] = -1
		}
	}
	return rowToCol, total
}
