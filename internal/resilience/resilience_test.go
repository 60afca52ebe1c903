package resilience

import (
	"context"
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

// newTestController returns a controller on the test clock and its one gate
// of 4 slots and 16 queue places, the server's queueCap = 4×slots shape.
func newTestController(ck *clock) (*Controller, *Gate) {
	c := NewController(Config{
		DegradeAt: 0.5,
		ShedAt:    0.9,
		EnterHold: 250 * time.Millisecond,
		ExitHold:  2 * time.Second,
		Now:       ck.now,
	})
	return c, c.NewGate(4, 16)
}

// observe sets a gate's counters to queued waiting and inFlight running
// requests and steps the controller as an arriving request's Enter does.
func observe(g *Gate, queued, inFlight int) State {
	g.queued.Store(int64(queued))
	g.inFlight.Store(int64(inFlight))
	return g.ctl.admit()
}

func TestControllerStaysHealthyUnderBriefSpike(t *testing.T) {
	ck := newClock()
	_, g := newTestController(ck)

	// Pressure above DegradeAt but shorter than EnterHold: a blip.
	observe(g, 10, 4) // 14/20 = 0.7
	ck.advance(100 * time.Millisecond)
	observe(g, 10, 4)
	ck.advance(50 * time.Millisecond)
	observe(g, 0, 1) // back to 0.05 before the hold elapses
	ck.advance(300 * time.Millisecond)
	if got := observe(g, 0, 1); got != Healthy {
		t.Fatalf("state after brief spike = %v, want healthy", got)
	}
}

func TestControllerDegradesAfterSustainedPressure(t *testing.T) {
	ck := newClock()
	c, g := newTestController(ck)

	observe(g, 10, 4) // 0.7 ≥ DegradeAt — starts the hold
	ck.advance(250 * time.Millisecond)
	if got := observe(g, 10, 4); got != Degraded {
		t.Fatalf("state after sustained pressure = %v, want degraded", got)
	}

	// Recovery needs the full ExitHold below the threshold.
	observe(g, 0, 1)
	ck.advance(1 * time.Second)
	if got := observe(g, 0, 1); got != Degraded {
		t.Fatalf("state mid-recovery = %v, want still degraded", got)
	}
	ck.advance(1 * time.Second)
	if got := observe(g, 0, 1); got != Healthy {
		t.Fatalf("state after exit hold = %v, want healthy", got)
	}

	snap := c.Snapshot()
	if snap.Transitions["degraded"] != 1 || snap.Transitions["healthy"] != 1 {
		t.Fatalf("transitions = %v, want degraded:1 healthy:1", snap.Transitions)
	}
}

func TestControllerShedsAndStepsDownThroughDegraded(t *testing.T) {
	ck := newClock()
	c, g := newTestController(ck)

	observe(g, 16, 4) // 20/20 = 1.0 ≥ ShedAt
	ck.advance(250 * time.Millisecond)
	if got := observe(g, 16, 4); got != Shedding {
		t.Fatalf("state under saturation = %v, want shedding", got)
	}

	// Pressure falls between the thresholds: sheds → degraded after the exit
	// hold, but no further since pressure still exceeds DegradeAt.
	observe(g, 10, 4) // 0.7
	ck.advance(2 * time.Second)
	if got := observe(g, 10, 4); got != Degraded {
		t.Fatalf("state after shed recovery = %v, want degraded", got)
	}
	ck.advance(10 * time.Second)
	if got := observe(g, 10, 4); got != Degraded {
		t.Fatalf("state with mid pressure = %v, want degraded held", got)
	}

	// Full recovery.
	observe(g, 0, 0)
	ck.advance(2 * time.Second)
	if got := observe(g, 0, 0); got != Healthy {
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

// TestControllerReadsFullestGate holds one gate at 90 % while a second gate
// admits a request every 50 ms: the idle gate's admissions must not hide the
// full one, so the controller browns out after the enter hold.
func TestControllerReadsFullestGate(t *testing.T) {
	ck := newClock()
	c, busy := newTestController(ck)
	idle := c.NewGate(4, 16)

	observe(busy, 14, 4) // 18/20 = 0.9
	for range 10 {
		ck.advance(50 * time.Millisecond)
		if release, _, err := idle.Enter(context.Background(), time.Second); err == nil {
			release()
		}
	}
	if got := c.State(); got != Degraded && got != Shedding {
		t.Fatalf("state with one gate at 90%% = %v, want degraded or shedding", got)
	}
	if snap := c.Snapshot(); snap.Pressure != 0.9 {
		t.Fatalf("pressure = %v, want the full gate's 0.9", snap.Pressure)
	}
}

func TestControllerForceStateDisablesTransitions(t *testing.T) {
	ck := newClock()
	c, g := newTestController(ck)

	c.ForceState(Degraded)
	if got := c.State(); got != Degraded {
		t.Fatalf("forced state = %v, want degraded", got)
	}
	// No observations can move it.
	ck.advance(time.Minute)
	if got := observe(g, 0, 0); got != Degraded {
		t.Fatalf("state after idle observations = %v, want pinned degraded", got)
	}
	ck.advance(time.Minute)
	observe(g, 16, 4)
	ck.advance(time.Minute)
	if got := observe(g, 16, 4); got != Degraded {
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
