package cache

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }

// waitFor polls cond until it holds; the flights under test park in other
// goroutines, so there is no event to block on. It reports a timeout with
// t.Error because leaders call it from inside compute, off the test goroutine.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestEntryBoundResetsOneShard fills a cache far past its entry bound: the
// total never exceeds the bound, a shard at its share is dropped wholesale,
// and the other shards keep what they hold.
func TestEntryBoundResetsOneShard(t *testing.T) {
	const bound = 4 * numShards
	c := New[int](bound, 0)
	perShard := func() (n [numShards]int) {
		for i := range c.shards {
			n[i] = len(c.shards[i].m)
		}
		return n
	}
	resets := 0
	for i := 0; i < 40*bound; i++ {
		before := perShard()
		c.Put(key(i), i, 0)
		after := perShard()
		if got := c.Stats().Entries; got > bound {
			t.Fatalf("after %d puts the cache holds %d entries, bound %d", i+1, got, bound)
		}
		own := shardOf(key(i))
		for s := range after {
			switch {
			case s != own && after[s] != before[s]:
				t.Fatalf("put %d into shard %d changed shard %d: %d -> %d entries", i, own, s, before[s], after[s])
			case s == own && before[s] == bound/numShards:
				resets++
				if after[s] != 1 {
					t.Fatalf("full shard %d holds %d entries after the put, want 1 (wholesale reset)", s, after[s])
				}
			case s == own && after[s] != before[s]+1:
				t.Fatalf("shard %d below its bound went %d -> %d entries", s, before[s], after[s])
			}
		}
	}
	if resets == 0 {
		t.Fatal("no shard was ever reset: the bound was not exercised")
	}
	if v, ok := c.Get(key(40*bound - 1)); !ok || v != 40*bound-1 {
		t.Fatalf("the last key put is not resident: %d, %v", v, ok)
	}
}

// TestByteBoundResetsOneShard does the same for the byte bound, with an entry
// bound too large to matter.
func TestByteBoundResetsOneShard(t *testing.T) {
	const size, bound = 100, 4 * 100 * numShards
	c := New[int](1<<20, bound)
	resets := 0
	for i := 0; i < 40*4*numShards; i++ {
		own := &c.shards[shardOf(key(i))]
		full := own.bytes+size > bound/numShards
		others := c.Stats().Bytes - own.bytes
		c.Put(key(i), i, size)
		if full {
			resets++
			if own.bytes != size || len(own.m) != 1 {
				t.Fatalf("full shard holds %d bytes in %d entries after the put, want one entry of %d", own.bytes, len(own.m), size)
			}
		}
		st := c.Stats()
		if st.Bytes > bound {
			t.Fatalf("after %d puts the cache accounts %d bytes, bound %d", i+1, st.Bytes, bound)
		}
		if st.Bytes-own.bytes != others {
			t.Fatalf("put %d changed the bytes of other shards: %d -> %d", i, others, st.Bytes-own.bytes)
		}
		if st.Bytes != st.Entries*size {
			t.Fatalf("accounted bytes %d do not match %d entries of %d", st.Bytes, st.Entries, size)
		}
	}
	if resets == 0 {
		t.Fatal("no shard was ever reset: the bound was not exercised")
	}
}

// TestPutReplaceAccounting re-puts one key: the byte total moves by the
// difference in size, not by the whole entry.
func TestPutReplaceAccounting(t *testing.T) {
	c := New[string](1024, 1<<20)
	c.Put(key(1), "a", 700)
	c.Put(key(2), "b", 50)
	for i := 0; i < 100; i++ {
		c.Put(key(1), "a", 700)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 750 {
		t.Fatalf("after re-putting one key: %d entries, %d bytes, want 2 and 750", st.Entries, st.Bytes)
	}
	c.Put(key(1), "c", 300)
	if st := c.Stats(); st.Bytes != 350 {
		t.Fatalf("after shrinking the entry: %d bytes, want 350", st.Bytes)
	}
	if v, _ := c.Get(key(1)); v != "c" {
		t.Fatalf("replaced value = %q, want c", v)
	}
}

func TestGetAllocsZero(t *testing.T) {
	c := New[int](1024, 0)
	k := key(7)
	c.Put(k, 7, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if v, ok := c.Get(k); !ok || v != 7 {
			t.Fatal("resident key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get on a resident key allocated %.1f times per run, want 0", allocs)
	}
	if st := c.Stats(); st.Hits != 101 || st.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 101/0", st.Hits, st.Misses)
	}
}

// TestDoSharesOneComputation holds a leader's computation open until every
// follower has parked, then releases it — so the counters are deterministic:
// one computation, one miss, 15 waits on one shared flight, and no flight
// left behind.
func TestDoSharesOneComputation(t *testing.T) {
	c := New[int](1024, 0)
	const callers = 16
	k := key(1)
	var computes atomic.Int32
	got := make([]int, callers)
	run := func(i int) {
		got[i] = c.Do(k, nil, func() (int, int) {
			computes.Add(1)
			// Followers bump waits before parking on the flight.
			waitFor(t, "15 followers on the flight", func() bool { return c.Stats().Waits == callers-1 })
			return 42, 0
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); run(0) }()
	waitFor(t, "the leader", func() bool { return computes.Load() == 1 })
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); run(i) }(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	st := c.Stats()
	if computes.Load() != 1 || st.Misses != 1 || st.Waits != callers-1 || st.Shared != 1 {
		t.Fatalf("computes=%d misses=%d waits=%d shared=%d, want 1/1/%d/1", computes.Load(), st.Misses, st.Waits, st.Shared, callers-1)
	}
	if len(c.flights) != 0 {
		t.Fatalf("%d flights left behind", len(c.flights))
	}
	// The published entry serves everyone from here on: Do re-checks before
	// computing, so even a caller that skipped Get computes nothing.
	if v := c.Do(k, nil, func() (int, int) { t.Error("computed a resident key"); return 0, 0 }); v != 42 {
		t.Fatalf("post-flight Do = %d, want 42", v)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("post-flight hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestDoCancelledFollowerRecomputes parks a follower behind a stuck leader
// and fires its cancel channel: it computes locally instead of wedging.
func TestDoCancelledFollowerRecomputes(t *testing.T) {
	c := New[int](1024, 0)
	k := key(1)
	hold, leaderIn := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan int, 1)
	go func() {
		leaderDone <- c.Do(k, nil, func() (int, int) {
			close(leaderIn)
			<-hold
			return 42, 0
		})
	}()
	<-leaderIn

	cancel := make(chan struct{})
	followerDone := make(chan int, 1)
	go func() {
		followerDone <- c.Do(k, cancel, func() (int, int) { return 42, 0 })
	}()
	waitFor(t, "the follower to park", func() bool { return c.Stats().Waits == 1 })
	close(cancel)
	select {
	case v := <-followerDone:
		if v != 42 {
			t.Fatalf("cancelled follower got %d, want 42", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled follower never returned")
	}
	close(hold)
	if v := <-leaderDone; v != 42 {
		t.Fatalf("leader got %d, want 42", v)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("misses=%d entries=%d, want 2 computations and 1 entry", st.Misses, st.Entries)
	}
}

// TestDoLeaderPanicReleasesFollowers kills the leader inside compute: its
// followers are released, compute for themselves, and no flight stays
// registered to wedge later callers.
func TestDoLeaderPanicReleasesFollowers(t *testing.T) {
	c := New[int](1024, 0)
	const followers = 4
	k := key(1)
	leaderIn, die := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Do(k, nil, func() (int, int) {
			close(leaderIn)
			<-die
			panic("leader died")
		})
	}()
	<-leaderIn

	var computes atomic.Int32
	var wg sync.WaitGroup
	got := make([]int, followers)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Do(k, nil, func() (int, int) { computes.Add(1); return 42, 0 })
		}(i)
	}
	waitFor(t, "the followers to park", func() bool { return c.Stats().Waits == followers })
	close(die)
	wg.Wait()
	if r := <-leaderDone; r != "leader died" {
		t.Fatalf("leader recovered %v, want its own panic", r)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("follower %d got %d, want 42", i, v)
		}
	}
	if n := computes.Load(); n != followers {
		t.Fatalf("%d followers recomputed, want %d", n, followers)
	}
	if len(c.flights) != 0 {
		t.Fatalf("%d flights left behind by the dead leader", len(c.flights))
	}
	if v, ok := c.Get(k); !ok || v != 42 {
		t.Fatalf("the recomputed value is not resident: %d, %v", v, ok)
	}
}

// TestCarryRewrites carries a filtered, rewritten copy: dropped keys are
// gone, kept ones hold keep's value at the size they had, and the source is
// untouched.
func TestCarryRewrites(t *testing.T) {
	src, dst := New[int](1024, 1<<20), New[int](1024, 1<<20)
	for i := 0; i < 200; i++ {
		src.Put(key(i), i, 10)
	}
	src.Carry(dst, func(k string, v int) (int, bool) {
		if string(key(v)) != k {
			t.Errorf("keep saw value %d under the key of another entry", v)
		}
		return v * 2, v%2 == 0
	})
	if st := dst.Stats(); st.Entries != 100 || st.Bytes != 1000 || st.Hits+st.Misses != 0 {
		t.Fatalf("carried %d entries, %d bytes, %d lookups; want 100, 1000, 0", st.Entries, st.Bytes, st.Hits+st.Misses)
	}
	for i := 0; i < 200; i++ {
		v, ok := dst.Get(key(i))
		if ok != (i%2 == 0) || ok && v != 2*i {
			t.Fatalf("carried key %d: %d, %v", i, v, ok)
		}
		if v, ok := src.Get(key(i)); !ok || v != i {
			t.Fatalf("source key %d after the carry: %d, %v", i, v, ok)
		}
	}
}

// TestConcurrentMixed hammers one small cache with every method at once; run
// under -race it certifies the locking, and the bound must hold throughout.
func TestConcurrentMixed(t *testing.T) {
	const bound = 8 * numShards
	c := New[int](bound, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key((i*7 + w) % 400)
				want := int(binary.BigEndian.Uint32(k))
				v, ok := c.Get(k)
				if !ok {
					v = c.Do(k, nil, func() (int, int) { return want, 0 })
				}
				if v != want {
					t.Errorf("key %d resolved to %d", want, v)
					return
				}
				if i%500 == 0 {
					c.Carry(New[int](bound, 0), func(_ string, v int) (int, bool) { return v, true })
				}
				if n := c.Stats().Entries; n > bound {
					t.Errorf("%d entries resident, bound %d", n, bound)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
