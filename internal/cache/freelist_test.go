package cache

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFreeListReuse checks that a FreeList makes a value only when none is
// kept, hands kept values back out, and never holds more than were out at
// once — from several goroutines at a time (run with -race).
func TestFreeListReuse(t *testing.T) {
	var made atomic.Int64
	f := FreeList[*int]{New: func() *int { made.Add(1); return new(int) }}
	a, b := f.Get(), f.Get()
	if a == b || made.Load() != 2 {
		t.Fatalf("two Gets on an empty list: same value %v, %d made", a == b, made.Load())
	}
	f.Put(a)
	if got := f.Get(); got != a || made.Load() != 2 {
		t.Fatalf("Get after Put made a value (%d made) or returned another", made.Load())
	}
	f.Put(a)
	f.Put(b)

	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := f.Get()
				*x++ // a value is owned by exactly one goroutine while out
				f.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := made.Load(); n > workers {
		t.Fatalf("%d values made for %d concurrent users", n, workers)
	}
	if int64(len(f.free)) != made.Load() {
		t.Fatalf("%d values kept, %d made", len(f.free), made.Load())
	}
	sum := 0
	for _, x := range f.free {
		sum += *x
	}
	if sum != workers*rounds {
		t.Fatalf("increments add up to %d, want %d", sum, workers*rounds)
	}
}
