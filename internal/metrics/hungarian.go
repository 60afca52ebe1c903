package metrics

import "math"

// costType is the element type of an assignment problem: int32 edit counts
// in the result-distance kernel, float64 in Assign.
type costType interface{ ~int32 | ~float64 }

// assigner solves minimum-cost assignment problems (the Hungarian method,
// Algorithm 2 of the thesis, as warm-started shortest augmenting paths) and
// owns the arrays a solve needs, so a kept assigner solves without
// allocating.
type assigner[T costType] struct {
	u, v, dist []T
	p          []int32 // p[j] = row assigned to column j, -1 = none
	x, pred    []int32 // x[i] = column of row i; pred[j] = row that reached j
	free       []int32 // rows the greedy start left unassigned
	todo, done []int32 // a phase's unlabelled and labelled matched columns
}

// solve assigns each of the rows to a column of its own so that the summed
// cost is minimal, and returns that sum. cost is the rows×cols matrix, row
// after row, and rows ≤ cols. inf is a value above every path length. On
// return s.p holds the optimum.
//
// The duals start warm: u[i] is row i's minimum and v = 0, and a greedy pass
// gives each row the first free column at its minimum — a tight pair, so the
// duals stay feasible. Every row the greedy pass left free then grows the
// matching along a shortest augmenting path (Dijkstra over reduced costs:
// only the row reached last is relaxed, over the still unlabelled columns),
// and the potentials are updated once, at the sink. v only ever decreases
// and only on matched columns, so a column left without a row keeps v = 0
// and is simply not paid for: the matrix is never squared. The worst case is
// O(rows²·cols); on the result-distance traffic most rows are seated by the
// greedy pass and most phases label a handful of columns.
func (s *assigner[T]) solve(cost []T, rows, cols int, inf T) T {
	s.u = zeroed(s.u, rows)
	s.v = zeroed(s.v, cols)
	s.dist = zeroed(s.dist, cols)
	s.p = zeroed(s.p, cols)
	s.x = zeroed(s.x, rows)
	s.pred = zeroed(s.pred, cols)
	u, v, dist, p, x, pred := s.u, s.v, s.dist, s.p, s.x, s.pred
	for j := range p {
		p[j] = -1
	}
	free := s.free[:0]
	for i := 0; i < rows; i++ {
		row := cost[i*cols : (i+1)*cols]
		lo, at := row[0], int32(-1)
		for j, c := range row {
			if c < lo {
				lo, at = c, -1
			}
			if c == lo && at < 0 && p[j] < 0 {
				at = int32(j)
			}
		}
		u[i] = lo
		if x[i] = at; at < 0 {
			free = append(free, int32(i))
		} else {
			p[at] = int32(i)
		}
	}
	todo, done := s.todo, s.done
	for _, start := range free {
		todo, done = todo[:0], done[:0]
		for j := range cols {
			todo = append(todo, int32(j))
			dist[j] = inf
		}
		i, d := start, T(0)
		var sink int32
		for {
			row, ui := cost[int(i)*cols:(int(i)+1)*cols], u[i]
			best, at := inf, 0
			for t, j := range todo {
				if c := d + row[j] - ui - v[j]; c < dist[j] {
					dist[j], pred[j] = c, i
				}
				// Among equally near columns a free one ends the phase.
				if c := dist[j]; c < best || c == best && p[j] < 0 {
					best, at = c, t
				}
			}
			j := todo[at]
			todo[at] = todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			d = best
			if p[j] < 0 {
				sink = j
				break
			}
			done = append(done, j)
			i = p[j]
		}
		u[start] += d
		for _, j := range done {
			delta := d - dist[j]
			v[j] -= delta
			u[p[j]] += delta
		}
		for j := sink; ; {
			i := pred[j]
			p[j] = i
			x[i], j = j, x[i]
			if i == start {
				break
			}
		}
	}
	s.free, s.todo, s.done = free, todo, done
	var total T
	for i, j := range x {
		total += cost[i*cols+int(j)]
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
	for j, i := range s.p {
		switch {
		case i < 0:
		case flip:
			rowToCol[j] = int(i)
		default:
			rowToCol[i] = j
		}
	}
	return rowToCol, total
}
