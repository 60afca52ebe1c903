package match

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// TestCoalescedCountSharesOneExecution puts CountKeyed callers behind a
// leader whose count is held open until every follower has parked, then
// released — so the stampede counters are deterministic. All 16 callers must
// see the same count, the cache must record exactly one miss, and the 15
// followers must be counted as waits on one shared flight.
func TestCoalescedCountSharesOneExecution(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(personType())

	const callers = 16
	key := string(q.AppendKey(nil))

	var leaders atomic.Int32
	counts := make([]int, callers)

	run := func(i int) {
		c := m.NewContext()
		if i > 0 {
			counts[i] = m.CountKeyed(c, q, key, 0)
			return
		}
		// The leader enters the count cache's flight under the key CountKeyed
		// builds — the query key plus cap 0, uvarint-encoded — and holds the
		// count open until all 15 followers have bumped the waits counter
		// (they do so before parking on the flight), so the stampede counters
		// below are exact, not racy.
		counts[i] = m.countCache.Do(append([]byte(key), 0), nil, func() (int, int) {
			leaders.Add(1)
			deadline := time.Now().Add(10 * time.Second)
			for m.countCache.Stats().Waits < int64(callers-1) {
				if time.Now().After(deadline) {
					t.Error("followers never reached the flight")
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			return m.Compile(q).Count(c, 0), 0
		})
	}

	// Caller 0 takes flight leadership first; only then start the followers,
	// so all 15 deterministically join the in-flight computation.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(0)
	}()
	for leaders.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()

	if got := leaders.Load(); got != 1 {
		t.Fatalf("flight leaders = %d, want 1", got)
	}
	for i, n := range counts {
		if n != 4 {
			t.Fatalf("caller %d count = %d, want 4", i, n)
		}
	}
	if _, misses, _ := m.CountCacheStats(); misses != 1 {
		t.Fatalf("count-cache misses = %d, want 1", misses)
	}
	waits, shared := m.CoalesceStats()
	if waits != callers-1 {
		t.Fatalf("coalescedWaits = %d, want %d", waits, callers-1)
	}
	if shared != 1 {
		t.Fatalf("coalescedShared = %d, want 1", shared)
	}
	// The published entry serves everyone from here on: no new flights.
	c := m.NewContext()
	if n := m.CountKeyed(c, q, key, 0); n != 4 {
		t.Fatalf("post-flight count = %d, want 4", n)
	}
	if hits, misses, _ := m.CountCacheStats(); misses != 1 || hits == 0 {
		t.Fatalf("post-flight hits/misses = %d/%d, want >0/1", hits, misses)
	}
}

// TestCoalescedFollowerCancellation parks a follower behind a stuck leader,
// cancels the follower's request context, and checks it falls back to
// counting locally instead of wedging.
func TestCoalescedFollowerCancellation(t *testing.T) {
	m := New(testGraph())
	q := query.New()
	q.AddVertex(personType())
	key := string(q.AppendKey(nil))

	hold := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c := m.NewContext()
		m.countCache.Do(append([]byte(key), 0), nil, func() (int, int) {
			close(leaderIn)
			<-hold
			return m.Compile(q).Count(c, 0), 0
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan int, 1)
	go func() {
		c := m.NewContext()
		c.SetRequest(ctx)
		followerDone <- m.CountKeyed(c, q, key, 0)
	}()
	// The follower is parked on the flight; release it by cancellation.
	for {
		if w, _ := m.CoalesceStats(); w >= 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case n := <-followerDone:
		if n != 4 {
			t.Fatalf("cancelled follower count = %d, want 4", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled follower never returned")
	}
	close(hold)
}

// TestCoalescedCandidateResolution releases 16 cold requests for one novel
// predicate set at once: the graph is scanned once, one entry is resident and
// it is accounted once — racing inserts used to add the entry's size sixteen
// times over, tripping the byte bound early and resetting a warm cache.
func TestCoalescedCandidateResolution(t *testing.T) {
	m := New(testGraph())
	vq := &query.Vertex{Preds: map[string]query.Predicate{"type": query.EqS("person"), "age": query.AtLeast(1)}}
	const callers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]int, callers)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = m.CandidateCount(vq)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, n := range got {
		if n != got[0] || n == 0 {
			t.Fatalf("caller %d resolved %d candidates, caller 0 %d", i, n, got[0])
		}
	}
	hits, misses, entries := m.CandCacheStats()
	waits, _ := m.CoalesceStats()
	if misses != 1 || entries != 1 || hits+int(waits) != callers-1 {
		t.Fatalf("hits=%d misses=%d waits=%d entries=%d, want one resolution and %d hits or waits", hits, misses, waits, entries, callers-1)
	}
	e := m.candidateEntry(vq)
	key := appendPredKey(nil, flattenPreds(nil, vq.Preds))
	if got, want := m.candCache.Stats().Bytes, e.bytes(len(key)); got != want {
		t.Fatalf("one resident entry is accounted at %d bytes, want %d", got, want)
	}
}
