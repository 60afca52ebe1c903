package cache

import "sync"

// FreeList keeps values for reuse by one owner: Get hands out a kept value,
// or makes one with New; Put takes it back. It does sync.Pool's job for
// state that belongs to one graph epoch, because a sync.Pool must not: once
// used, a Pool stays registered with the runtime until the second garbage
// collection after its last use, and the registration keeps alive the struct
// the Pool is a field of, whatever its New closure captured and whatever its
// items point to. For the per-epoch pools that was every retired engine with
// its copy of the graph, two collections long — at twenty writes a second,
// eight engines where one serves. A FreeList is ordinary memory and goes
// when its owner goes. It never holds more values than were out at once.
type FreeList[T any] struct {
	New func() T

	mu   sync.Mutex
	free []T
}

// Get returns a kept value, or a new one when none is kept.
func (f *FreeList[T]) Get() T {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		var zero T
		f.free[n-1] = zero
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.New()
}

// Put keeps x for a later Get.
func (f *FreeList[T]) Put(x T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}
