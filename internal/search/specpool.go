package search

// Admission-aware speculation budget.
//
// Speculation trades spare worker cycles for wall-clock latency: extra
// workers evaluate candidates ahead of the sequential loop, and because
// evaluation is deterministic the results are byte-identical whether they
// were precomputed or executed inline. That trade is only free while the
// server has spare cycles. Under fleet load — every admission slot occupied —
// a speculative wave launched by one request competes with the *admitted*
// work of another, so prefetching that might be wasted (SpecWaste) displaces
// work that definitely is not.
//
// SpecPool makes the trade explicit: a server-wide token pool sized off the
// free admission slots. The pool does not compute that number; in whydbd its
// free function is resilience.Controller.Free, a lock-free read of the slot
// totals the admission gates maintain — the same occupancy the gates admit
// on and the brownout controller samples. Every speculative wave must
// acquire one token per candidate it wants to prefetch and returns them when
// the wave completes, so the speculative work in flight can never exceed what
// the idle fraction of the server can absorb. When every slot is busy the
// pool grants nothing and the searches silently fall back to their
// sequential loop (which is byte-identical by construction); when the server
// idles the full wave is granted and speculation runs exactly as before.
//
// The pool is additionally steered by the kernel's speculative-waste
// counter: executors report each run's (speculated, consumed) outcome, and
// the grant fraction decays toward a floor as the recent waste share rises —
// a workload whose speculation keeps missing gets its prefetch budget cut
// even on an idle server. The floor keeps a trickle of speculation alive so
// the waste estimate can recover when the workload shifts.

import (
	"sync"
	"sync/atomic"
)

// SpecPool is a shared speculation-token pool. The zero value is not usable;
// construct with NewSpecPool. A nil *SpecPool grants everything (no gating),
// which is what library users and the benchmarks get.
type SpecPool struct {
	// free reports the server's free admission slots right now (whydbd passes
	// resilience.Controller.Free). nil means "always idle".
	free func() int
	// perSlot is how many speculative evaluations one free slot may absorb —
	// the widest engine's worker count, so a sole tenant on an otherwise idle
	// server still gets full-width waves. Atomic because the server resizes
	// the pool as datasets register while requests may already be running.
	perSlot  atomic.Int64
	capacity atomic.Int64

	outstanding atomic.Int64 // tokens currently held by running waves
	granted     atomic.Int64
	denied      atomic.Int64
	returned    atomic.Int64

	// Recent speculation outcomes, decayed by halving so old workloads stop
	// steering. Guarded by wasteMu: outcomes arrive once per search run.
	wasteMu  sync.Mutex
	wasteNum int64 // wasted speculative evaluations
	wasteDen int64 // launched speculative evaluations
}

// wasteFloor is the minimum grant fraction (percent) the waste steering may
// throttle to on an idle server: a trickle of speculation must survive so the
// waste estimate can observe a workload shift and recover.
const wasteFloor = 25

// NewSpecPool returns a pool over totalSlots admission slots, granting up to
// perSlot speculative evaluations per free slot. free reports the current
// free-slot count; nil treats the server as permanently idle (full grants,
// waste steering only).
func NewSpecPool(totalSlots, perSlot int, free func() int) *SpecPool {
	p := &SpecPool{free: free}
	p.Resize(totalSlots, perSlot)
	return p
}

// Resize updates the pool's slot count and per-slot width — the server calls
// it as datasets register. Safe while waves are in flight: an over-granted
// wave simply finishes and returns its tokens.
func (p *SpecPool) Resize(totalSlots, perSlot int) {
	if perSlot < 1 {
		perSlot = 1
	}
	if totalSlots < 1 {
		totalSlots = 1
	}
	p.perSlot.Store(int64(perSlot))
	p.capacity.Store(int64(totalSlots * perSlot))
}

// Acquire requests want speculation tokens and returns how many were granted
// (0 ≤ granted ≤ want). The caller must Release exactly the granted count
// when its wave completes. A nil pool grants everything.
func (p *SpecPool) Acquire(want int) int {
	if p == nil {
		return want
	}
	if want <= 0 {
		return 0
	}
	avail := p.available()
	// Waste steering: scale the grantable share down as the recent waste
	// fraction rises, never below the recovery floor.
	if frac := p.grantPercent(); frac < 100 {
		avail = avail * frac / 100
	}
	n := want
	if n > avail {
		n = avail
	}
	if n <= 0 {
		p.denied.Add(int64(want))
		return 0
	}
	p.outstanding.Add(int64(n))
	p.granted.Add(int64(n))
	if n < want {
		p.denied.Add(int64(want - n))
	}
	return n
}

// Release returns granted tokens after a wave completes.
func (p *SpecPool) Release(granted int) {
	if p == nil || granted <= 0 {
		return
	}
	p.outstanding.Add(-int64(granted))
	p.returned.Add(int64(granted))
}

// NoteOutcome feeds one search run's speculation outcome — evaluations
// launched and evaluations the sequential loop never consumed — into the
// waste steering. Called by Executor.End.
func (p *SpecPool) NoteOutcome(speculated, wasted int64) {
	if p == nil || speculated <= 0 {
		return
	}
	p.wasteMu.Lock()
	p.wasteNum += wasted
	p.wasteDen += speculated
	// Exponential decay: once enough outcomes accumulated, halve, so the
	// estimate tracks the recent workload rather than the server's lifetime.
	if p.wasteDen > 4096 {
		p.wasteNum /= 2
		p.wasteDen /= 2
	}
	p.wasteMu.Unlock()
}

// grantPercent is the waste-steered grant fraction in percent (100 = no
// throttling, wasteFloor = maximum throttling).
func (p *SpecPool) grantPercent() int {
	p.wasteMu.Lock()
	num, den := p.wasteNum, p.wasteDen
	p.wasteMu.Unlock()
	if den < 64 {
		return 100 // too little signal to steer
	}
	frac := 100 - int(num*100/den)
	if frac < wasteFloor {
		frac = wasteFloor
	}
	return frac
}

// available is the raw token headroom: free slots × per-slot width, minus
// the tokens already out with running waves.
func (p *SpecPool) available() int {
	perSlot := int(p.perSlot.Load())
	slots := int(p.capacity.Load()) / perSlot
	if p.free != nil {
		slots = p.free()
	}
	avail := slots*perSlot - int(p.outstanding.Load())
	if avail < 0 {
		return 0
	}
	return avail
}

// PoolCounters is a snapshot of the pool's utilization (→ /v1/stats).
type PoolCounters struct {
	Size     int   // grantable tokens right now
	Capacity int   // idle-server maximum
	Granted  int64 // tokens granted over the pool's lifetime
	Denied   int64 // tokens requested but not granted
	Returned int64 // tokens returned by completed waves
}

// Snapshot returns the pool's current utilization counters.
func (p *SpecPool) Snapshot() PoolCounters {
	if p == nil {
		return PoolCounters{}
	}
	size := p.available()
	if frac := p.grantPercent(); frac < 100 {
		size = size * frac / 100
	}
	return PoolCounters{
		Size:     size,
		Capacity: int(p.capacity.Load()),
		Granted:  p.granted.Load(),
		Denied:   p.denied.Load(),
		Returned: p.returned.Load(),
	}
}
