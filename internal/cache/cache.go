// Package cache is the engine's one cache: the thesis' re-use of already
// processed queries (§1.1 contribution 4, the App. B.2 executed-query cache)
// as a mechanism, instantiated by internal/match for candidate sets and
// executed counts; the statistics of internal/stats are lookups in both.
//
// A Cache maps binary canonical keys to values that are deterministic over
// one frozen graph, so a resident value, a recomputed one and one shared
// between requests are interchangeable. It is lock-striped over 16 shards
// so concurrent requests do not serialize on one mutex. Eviction is a
// per-shard wholesale epoch reset: a shard that reaches its share of the
// entry bound (or, when one is set, of the byte bound) is dropped and starts
// over — steady-state workloads, whose distinct keys number in the hundreds,
// stay permanently warm, and a stream of never-repeating keys stays bounded.
//
// A miss is resolved by its caller: Get counts it, the caller computes the
// value and Puts it, so misses == computations holds exactly. Concurrent cold
// misses on one key may each compute it; the values are deterministic, so
// the copies are interchangeable and the last Put simply replaces the first.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Cache is a bounded, sharded map from binary keys to V. It is safe for
// concurrent use; the zero value is not usable, call New.
type Cache[V any] struct {
	shards     [numShards]shard[V]
	maxEntries int // per shard
	maxBytes   int // per shard; 0 = no byte bound

	hits, misses atomic.Int64
}

type shard[V any] struct {
	mu    sync.RWMutex
	m     map[string]entry[V] // nil until the first Put
	bytes int
}

// entry keeps the size a value was accounted at, so replacing or carrying it
// moves the shard's byte total by the difference, not by the whole.
type entry[V any] struct {
	v    V
	size int
}

// Stats is a point-in-time view of a cache's counters. Misses is the number
// of lookups Get missed, which every caller answers with one computation.
type Stats struct {
	Hits, Misses   int64
	Entries, Bytes int
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

// shardOf picks a key's shard with the runtime's own map hash, a tenth of
// the cost of a byte-wise FNV loop on the ~150-byte canonical keys.
func shardOf(key []byte) int { return int(maphash.Bytes(seed, key) % numShards) }

// Get returns the value resident under key and counts the hit or the miss.
// It does not allocate: the compiler elides the []byte→string conversion in a
// map index. A caller that misses computes the value and Puts it.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	s := &c.shards[shardOf(key)]
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e.v, ok
}

// Put stores v under key, accounted at size bytes (0 for caches without a
// byte bound). Replacing a resident key moves the byte total by the
// difference in size only.
func (c *Cache[V]) Put(key []byte, v V, size int) {
	k := string(key) // allocated before locking: the shard's readers wait on the lock
	s := &c.shards[shardOf(key)]
	s.mu.Lock()
	old, resident := s.m[k]
	if s.m == nil || !resident && len(s.m) >= c.maxEntries ||
		c.maxBytes > 0 && s.bytes-old.size+size > c.maxBytes {
		s.m, s.bytes, old = make(map[string]entry[V]), 0, entry[V]{}
	}
	s.m[k] = entry[V]{v, size}
	s.bytes += size - old.size
	s.mu.Unlock()
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
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		s.mu.RUnlock()
	}
	return st
}
