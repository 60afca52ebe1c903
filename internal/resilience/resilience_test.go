package resilience

import (
	"sync"
	"testing"
	"time"
)

// clock is a deterministic test clock advanced by hand.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock {
	return &clock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestController(ck *clock) *Controller {
	return NewController(Config{
		DegradeAt:     0.5,
		ShedAt:        0.9,
		EnterHold:     250 * time.Millisecond,
		ExitHold:      2 * time.Second,
		LatencyBudget: 500 * time.Millisecond,
		Now:           ck.now,
	})
}

// observe pushes one occupancy sample expressed as queued/inFlight over a
// 16+4 capacity split, matching the server's queueCap = 4×admitCap shape.
func observe(c *Controller, queued, inFlight int) State {
	return c.sample(float64(queued+inFlight) / float64(16+4))
}

func TestControllerStaysHealthyUnderBriefSpike(t *testing.T) {
	ck := newClock()
	c := newTestController(ck)

	// Pressure above DegradeAt but shorter than EnterHold: a blip.
	observe(c, 10, 4) // 14/20 = 0.7
	ck.advance(100 * time.Millisecond)
	observe(c, 10, 4)
	ck.advance(50 * time.Millisecond)
	observe(c, 0, 1) // back to 0.05 before the hold elapses
	ck.advance(300 * time.Millisecond)
	if got := observe(c, 0, 1); got != Healthy {
		t.Fatalf("state after brief spike = %v, want healthy", got)
	}
}

func TestControllerDegradesAfterSustainedPressure(t *testing.T) {
	ck := newClock()
	c := newTestController(ck)

	observe(c, 10, 4) // 0.7 ≥ DegradeAt — starts the hold
	ck.advance(250 * time.Millisecond)
	if got := observe(c, 10, 4); got != Degraded {
		t.Fatalf("state after sustained pressure = %v, want degraded", got)
	}

	// Recovery needs the full ExitHold below the threshold.
	observe(c, 0, 1)
	ck.advance(1 * time.Second)
	if got := observe(c, 0, 1); got != Degraded {
		t.Fatalf("state mid-recovery = %v, want still degraded", got)
	}
	ck.advance(1 * time.Second)
	if got := observe(c, 0, 1); got != Healthy {
		t.Fatalf("state after exit hold = %v, want healthy", got)
	}

	snap := c.Snapshot()
	if snap.Transitions["degraded"] != 1 || snap.Transitions["healthy"] != 1 {
		t.Fatalf("transitions = %v, want degraded:1 healthy:1", snap.Transitions)
	}
}

func TestControllerShedsAndStepsDownThroughDegraded(t *testing.T) {
	ck := newClock()
	c := newTestController(ck)

	observe(c, 16, 4) // 20/20 = 1.0 ≥ ShedAt
	ck.advance(250 * time.Millisecond)
	if got := observe(c, 16, 4); got != Shedding {
		t.Fatalf("state under saturation = %v, want shedding", got)
	}

	// Pressure falls between the thresholds: sheds → degraded after the exit
	// hold, but no further since pressure still exceeds DegradeAt.
	observe(c, 10, 4) // 0.7
	ck.advance(2 * time.Second)
	if got := observe(c, 10, 4); got != Degraded {
		t.Fatalf("state after shed recovery = %v, want degraded", got)
	}
	ck.advance(10 * time.Second)
	if got := observe(c, 10, 4); got != Degraded {
		t.Fatalf("state with mid pressure = %v, want degraded held", got)
	}

	// Full recovery.
	observe(c, 0, 0)
	ck.advance(2 * time.Second)
	if got := observe(c, 0, 0); got != Healthy {
		t.Fatalf("state after full recovery = %v, want healthy", got)
	}
	snap := c.Snapshot()
	want := map[string]int64{"shedding": 1, "degraded": 1, "healthy": 1}
	for k, n := range want {
		if snap.Transitions[k] != n {
			t.Fatalf("transitions = %v, want %v", snap.Transitions, want)
		}
	}
}

func TestControllerLatencyEWMADrivesPressure(t *testing.T) {
	ck := newClock()
	c := newTestController(ck)

	// Slow explains past the 500ms budget push the latency fraction ≥ 1.
	for i := 0; i < 10; i++ {
		c.ObserveLatency("explain", 800*time.Millisecond)
	}
	snap := c.Snapshot()
	if snap.Latency["explain"] < 500 {
		t.Fatalf("EWMA = %.1fms, want > budget after repeated slow samples", snap.Latency["explain"])
	}
	if snap.Pressure < 1.0 {
		t.Fatalf("pressure = %.2f, want ≥ 1.0 from latency alone", snap.Pressure)
	}

	// Even with an empty queue the latency floor keeps the hold running.
	ck.advance(250 * time.Millisecond)
	if got := observe(c, 0, 0); got != Shedding {
		t.Fatalf("state with hot EWMA = %v, want shedding", got)
	}
}

func TestControllerForceStateDisablesTransitions(t *testing.T) {
	ck := newClock()
	c := newTestController(ck)

	c.ForceState(Degraded)
	if got := c.State(); got != Degraded {
		t.Fatalf("forced state = %v, want degraded", got)
	}
	// No observations can move it.
	ck.advance(time.Minute)
	if got := observe(c, 0, 0); got != Degraded {
		t.Fatalf("state after idle observations = %v, want pinned degraded", got)
	}
	ck.advance(time.Minute)
	observe(c, 16, 4)
	ck.advance(time.Minute)
	if got := observe(c, 16, 4); got != Degraded {
		t.Fatalf("state under saturation = %v, want pinned degraded", got)
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(Config{})
	if c.cfg.DegradeAt != 0.5 || c.cfg.ShedAt != 0.9 {
		t.Fatalf("default thresholds = %v/%v", c.cfg.DegradeAt, c.cfg.ShedAt)
	}
	if got := c.State(); got != Healthy {
		t.Fatalf("initial state = %v, want healthy", got)
	}
}
