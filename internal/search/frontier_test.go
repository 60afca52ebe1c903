package search

import (
	"math/rand"
	"sort"
	"testing"
)

type item struct {
	prio int
	id   int
}

func itemLess(a, b item) bool { return a.prio < b.prio }

// TestFrontierTotalOrder proves the pop sequence is the strategy order with
// insertion-sequence tie-breaks, for adversarial insertion orders: many
// equal priorities, ascending, descending, and shuffled runs all pop in
// exactly the order a stable sort of the insertion sequence would produce.
func TestFrontierTotalOrder(t *testing.T) {
	makeItems := func(prios []int) []item {
		items := make([]item, len(prios))
		for i, p := range prios {
			items[i] = item{prio: p, id: i} // id == insertion sequence
		}
		return items
	}
	cases := map[string][]int{
		"all-equal":  {7, 7, 7, 7, 7, 7, 7, 7},
		"ascending":  {1, 2, 3, 4, 5, 6, 7, 8},
		"descending": {8, 7, 6, 5, 4, 3, 2, 1},
		"plateaus":   {3, 1, 3, 1, 2, 2, 3, 1, 2, 3, 1, 2},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		prios := make([]int, 64)
		for j := range prios {
			prios[j] = rng.Intn(5) // heavy ties
		}
		cases["shuffled"] = prios
	}
	for name, prios := range cases {
		f := NewFrontier(itemLess)
		items := makeItems(prios)
		for _, it := range items {
			f.Push(it)
		}
		if f.Pushed() != len(items) {
			t.Fatalf("%s: Pushed() = %d, want %d", name, f.Pushed(), len(items))
		}
		want := append([]item(nil), items...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].prio < want[j].prio })
		for i, w := range want {
			got, ok := f.Pop()
			if !ok {
				t.Fatalf("%s: frontier empty after %d pops, want %d", name, i, len(want))
			}
			if got != w {
				t.Fatalf("%s: pop %d = %+v, want %+v (ties must pop in insertion order)", name, i, got, w)
			}
		}
		if _, ok := f.Pop(); ok {
			t.Fatalf("%s: frontier not empty after all pops", name)
		}
	}
}

// TestFrontierReset checks Reset restarts the insertion sequence so reused
// frontiers behave like fresh ones.
func TestFrontierReset(t *testing.T) {
	f := NewFrontier(itemLess)
	f.Push(item{prio: 1, id: 0})
	f.Push(item{prio: 1, id: 1})
	f.Reset()
	if f.Len() != 0 || f.Pushed() != 0 {
		t.Fatalf("after Reset: Len=%d Pushed=%d", f.Len(), f.Pushed())
	}
	f.Push(item{prio: 2, id: 10})
	f.Push(item{prio: 2, id: 11})
	first, _ := f.Pop()
	if first.id != 10 {
		t.Fatalf("post-Reset tie must pop in new insertion order, got id %d", first.id)
	}
}
