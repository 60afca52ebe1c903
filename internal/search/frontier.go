package search

// Frontier is the deterministic priority frontier of an explanation search:
// a binary heap ordered by the strategy's strict order with an
// insertion-sequence tie-break. The tie-break makes the pop sequence a total
// order — candidates the strategy considers equal pop in insertion order
// regardless of the heap's internal array layout — so a search's expansion
// order, and with it every answer, is a function of its inputs alone.
type Frontier[N any] struct {
	// less is the strategy's strict order: less(a, b) means a pops before b.
	// It must be irreflexive; when neither less(a, b) nor less(b, a) holds,
	// the insertion sequence decides.
	less   func(a, b N) bool
	heap   []ranked[N]
	pushed int
}

// ranked pairs a node with its insertion sequence number.
type ranked[N any] struct {
	node N
	seq  int
}

// NewFrontier returns an empty frontier under the given strict order.
func NewFrontier[N any](less func(a, b N) bool) *Frontier[N] {
	return &Frontier[N]{less: less}
}

// Len reports the number of queued nodes.
func (f *Frontier[N]) Len() int { return len(f.heap) }

// Pushed reports the total insertions since the last Reset — the generated-
// candidate count of searches that push every candidate exactly once.
func (f *Frontier[N]) Pushed() int { return f.pushed }

// Reset empties the frontier and restarts the insertion sequence, keeping
// the underlying storage for the next run. Entries are zeroed so a pooled
// search state does not retain the previous run's candidates (and their
// cloned queries) beyond the next run's frontier size.
func (f *Frontier[N]) Reset() {
	clear(f.heap)
	f.heap = f.heap[:0]
	f.pushed = 0
}

// Push inserts a node, assigning the next insertion sequence number.
func (f *Frontier[N]) Push(n N) {
	f.heap = append(f.heap, ranked[N]{node: n, seq: f.pushed})
	f.up(len(f.heap) - 1)
	f.pushed++
}

// Pop removes and returns the best node (ok == false when empty).
func (f *Frontier[N]) Pop() (n N, ok bool) {
	if len(f.heap) == 0 {
		return n, false
	}
	n = f.heap[0].node
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
	f.heap[last] = ranked[N]{} // release the node for GC
	f.heap = f.heap[:last]
	if last > 0 {
		f.down(0)
	}
	return n, true
}

// before is the heap's full order: the strategy's strict order, then the
// insertion sequence (unique, so the order is total).
func (f *Frontier[N]) before(a, b ranked[N]) bool {
	if f.less(a.node, b.node) {
		return true
	}
	if f.less(b.node, a.node) {
		return false
	}
	return a.seq < b.seq
}

func (f *Frontier[N]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !f.before(f.heap[i], f.heap[parent]) {
			break
		}
		f.heap[i], f.heap[parent] = f.heap[parent], f.heap[i]
		i = parent
	}
}

func (f *Frontier[N]) down(i int) {
	n := len(f.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && f.before(f.heap[right], f.heap[left]) {
			best = right
		}
		if !f.before(f.heap[best], f.heap[i]) {
			return
		}
		f.heap[i], f.heap[best] = f.heap[best], f.heap[i]
		i = best
	}
}
