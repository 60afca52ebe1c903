// Package cache is the engine's one cache: the thesis' re-use of already
// processed queries (§1.1 contribution 4, the App. B.2 executed-query cache)
// as a mechanism, instantiated by internal/match for candidate lists,
// compiled plans and executed counts and by internal/stats for the three
// cardinality statistics.
//
// A Cache maps binary canonical keys to values that are deterministic over
// one frozen graph, so a resident value, a recomputed one and one shared
// between requests are interchangeable. It is lock-striped over 16 shards
// so worker pools do not serialize on one mutex. Eviction is a
// per-shard wholesale epoch reset: a shard that reaches its share of the
// entry bound (or, when one is set, of the byte bound) is dropped and starts
// over — steady-state workloads, whose distinct keys number in the hundreds,
// stay permanently warm, and a stream of never-repeating keys stays bounded.
//
// Misses coalesce (Do): N concurrent requests for one novel key run one
// computation, not N — the cold burst of identical explains after a deploy
// or an epoch swap is the classic cache stampede. Followers bump neither
// the hit nor the miss counter, so misses == computations stays exact.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Cache is a bounded, sharded, coalescing map from binary keys to V. It is
// safe for concurrent use; the zero value is not usable, call New.
type Cache[V any] struct {
	shards     [numShards]shard[V]
	maxEntries int // per shard
	maxBytes   int // per shard; 0 = no byte bound

	hits, misses, waits, shared atomic.Int64

	flightMu sync.Mutex
	flights  map[string]*flight[V]
}

type shard[V any] struct {
	mu    sync.RWMutex
	m     map[string]entry[V] // nil until the first put
	bytes int
}

// entry keeps the size a value was accounted at, so replacing or carrying it
// moves the shard's byte total by the difference, not by the whole.
type entry[V any] struct {
	v    V
	size int
}

// flight is one in-flight computation. val and ok are written by the leader
// before done closes; followers read them only after the close, which orders
// the accesses.
type flight[V any] struct {
	done   chan struct{}
	val    V
	ok     bool // false: the leader died before publishing; followers recompute
	shared bool // a follower joined; guarded by flightMu
}

// Stats is a point-in-time view of a cache's counters. Misses is the number
// of computations Do ran; Waits the lookups that parked behind another
// caller's computation instead of duplicating it; Shared the computations
// whose result was handed to at least one waiter.
type Stats struct {
	Hits, Misses, Waits, Shared int64
	Entries, Bytes              int
}

// Counts is the (hits, misses, entries) triple the stats endpoints report.
func (s Stats) Counts() (hits, misses, entries int) {
	return int(s.Hits), int(s.Misses), s.Entries
}

// New returns a cache holding at most maxEntries entries and, when maxBytes
// is non-zero, at most maxBytes accounted bytes; each shard gets a sixteenth
// of either bound.
func New[V any](maxEntries, maxBytes int) *Cache[V] {
	return &Cache[V]{maxEntries: max(1, maxEntries/numShards), maxBytes: maxBytes / numShards}
}

// seed is shared by every cache of the process, so a key lives in the same
// shard of a cache and of the cache it is carried into.
var seed = maphash.MakeSeed()

// shardOf picks a key's shard. maphash.Bytes and maphash.String hash equal
// bytes alike, so Get, put and Carry agree on where a key lives; it is the
// runtime's own map hash, a tenth of the cost of a byte-wise FNV loop on the
// ~150-byte canonical keys.
func shardOf(key []byte) int { return int(maphash.Bytes(seed, key) % numShards) }

// Get returns the value resident under key and counts the hit. It does not
// allocate: the compiler elides the []byte→string conversion in a map index.
// A miss is not counted here — Do counts it when it computes.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	s := &c.shards[shardOf(key)]
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return e.v, ok
}

// Put stores v under key, accounted at size bytes (0 for caches without a
// byte bound). Replacing a resident key moves the byte total by the
// difference in size only.
func (c *Cache[V]) Put(key []byte, v V, size int) { c.put(string(key), v, size) }

func (c *Cache[V]) put(key string, v V, size int) {
	s := &c.shards[maphash.String(seed, key)%numShards]
	s.mu.Lock()
	old, resident := s.m[key]
	if s.m == nil || !resident && len(s.m) >= c.maxEntries ||
		c.maxBytes > 0 && s.bytes-old.size+size > c.maxBytes {
		s.m, s.bytes, old = make(map[string]entry[V]), 0, entry[V]{}
	}
	s.m[key] = entry[V]{v, size}
	s.bytes += size - old.size
	s.mu.Unlock()
}

// Do resolves a key Get missed: compute returns the value and its accounted
// size. Concurrent calls for one key form a flight. The first caller leads:
// it re-checks the cache (a previous leader may have published between the
// caller's Get and now), else computes, counts exactly one miss and
// publishes. The others park on the flight and share the leader's value. A
// follower whose cancel channel fires, or whose leader died before
// publishing (a panic unwinding through compute), computes locally exactly
// as an uncoalesced miss would — so a flight can never wedge the requests
// behind it. A nil cancel never fires.
func (c *Cache[V]) Do(key []byte, cancel <-chan struct{}, compute func() (V, int)) V {
	skey := string(key)
	c.flightMu.Lock()
	if f := c.flights[skey]; f != nil {
		f.shared = true
		c.flightMu.Unlock()
		c.waits.Add(1)
		select {
		case <-f.done:
			if f.ok {
				return f.val
			}
		case <-cancel:
		}
		return c.compute(skey, compute)
	}
	if c.flights == nil {
		c.flights = make(map[string]*flight[V])
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[skey] = f
	c.flightMu.Unlock()
	defer func() {
		// The delete runs under the mutex that guards the shared flag, so
		// the shared count is exact.
		c.flightMu.Lock()
		delete(c.flights, skey)
		shared := f.shared
		c.flightMu.Unlock()
		close(f.done)
		if shared {
			c.shared.Add(1)
		}
	}()
	v, ok := c.Get(key)
	if !ok {
		v = c.compute(skey, compute)
	}
	f.val, f.ok = v, true
	return v
}

func (c *Cache[V]) compute(key string, compute func() (V, int)) V {
	c.misses.Add(1)
	v, size := compute()
	c.put(key, v, size)
	return v
}

// Carry copies into dst every entry keep admits, as the value keep returns
// for it and at the size it was accounted at here. dst must have been built
// with the same bounds; a key hashes to the same shard in both. Each shard is
// copied under its read lock while c keeps serving, so keep must not call
// into either cache.
func (c *Cache[V]) Carry(dst *Cache[V], keep func(key string, v V) (V, bool)) {
	for i := range c.shards {
		src, d := &c.shards[i], &dst.shards[i]
		src.mu.RLock()
		d.mu.Lock()
		if d.m == nil {
			d.m = make(map[string]entry[V], len(src.m))
		}
		for k, e := range src.m {
			if v, ok := keep(k, e.v); ok {
				d.bytes += e.size - d.m[k].size
				d.m[k] = entry[V]{v, e.size}
			}
		}
		d.mu.Unlock()
		src.mu.RUnlock()
	}
}

// Stats reports the counters and the resident entries and accounted bytes.
func (c *Cache[V]) Stats() Stats {
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Waits: c.waits.Load(), Shared: c.shared.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		s.mu.RUnlock()
	}
	return st
}
