package metrics

import "math"

// costType is the element type of an assignment problem: int32 edit counts
// in the result-distance kernel, float64 in Assign.
type costType interface{ ~int32 | ~float64 }

// assigner solves minimum-cost assignment problems (the Hungarian method,
// Algorithm 2 of the thesis, in the potential formulation) and owns the
// arrays a solve needs, so a kept assigner solves without allocating.
type assigner[T costType] struct {
	u, v, minv []T
	p, way     []int32 // p[j] = row assigned to column j; 1-based, 0 = none
	used       []bool
}

// solve assigns each of the rows to a column of its own so that the summed
// cost is minimal, and returns that sum. cost is the rows×cols matrix, row
// after row, and rows ≤ cols: the matrix is never squared, a column left
// without a row is simply not paid for, which makes the work O(rows²·cols).
// inf is a value above every reduced cost. On return s.p holds the optimum.
func (s *assigner[T]) solve(cost []T, rows, cols int, inf T) T {
	s.u = zeroed(s.u, rows+1)
	s.v = zeroed(s.v, cols+1)
	s.p = zeroed(s.p, cols+1)
	s.way = zeroed(s.way, cols+1)
	s.minv = zeroed(s.minv, cols+1)
	s.used = zeroed(s.used, cols+1)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	for i := 1; i <= rows; i++ {
		// Grow the matching by row i along a shortest augmenting path.
		p[0] = int32(i)
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := int(p[j0])
			row := cost[(i0-1)*cols : i0*cols]
			delta, j1 := inf, 0
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				if cur := row[j-1] - u[i0] - v[j]; cur < minv[j] {
					minv[j] = cur
					way[j] = int32(j0)
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
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
		for j0 != 0 {
			j1 := int(way[j0])
			p[j0] = p[j1]
			j0 = j1
		}
	}
	var total T
	for j := 1; j <= cols; j++ {
		if i := int(p[j]); i > 0 {
			total += cost[(i-1)*cols+j-1]
		}
	}
	return total
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Assign solves the minimum-cost assignment problem (Definition 8) for a
// cost matrix of any shape: every row or every column, whichever are fewer,
// is matched to a partner of its own. It returns the column assigned to each
// row — -1 for a row left over when there are more rows than columns — and
// the total cost of the matched pairs. Algorithm 2's Step 0 squares the
// matrix with m−n lines of cost 1 first; those lines add the constant m−n to
// every assignment, so callers add it instead of materialising them.
func Assign(cost [][]float64) (rowToCol []int, total float64) {
	m := len(cost)
	if m == 0 {
		return nil, 0
	}
	n := len(cost[0])
	rowToCol = make([]int, m)
	for i := range rowToCol {
		rowToCol[i] = -1
	}
	// The solver wants the shorter side as its rows.
	rows, cols, flip := m, n, m > n
	if flip {
		rows, cols = n, m
	}
	flat := make([]float64, rows*cols)
	for i := range cost {
		for j, c := range cost[i] {
			if flip {
				flat[j*cols+i] = c
			} else {
				flat[i*cols+j] = c
			}
		}
	}
	var s assigner[float64]
	total = s.solve(flat, rows, cols, math.MaxFloat64)
	for j := 1; j <= cols; j++ {
		switch i := int(s.p[j]); {
		case i == 0:
		case flip:
			rowToCol[j-1] = i - 1
		default:
			rowToCol[i-1] = j - 1
		}
	}
	return rowToCol, total
}
