package resilience

import (
	"context"
	"testing"
	"time"
)

// newTestController returns a controller and its one gate of 4 slots and 16
// queue places, the server's queueCap = 4×slots shape.
func newTestController() (*Controller, *Gate) {
	c := NewController(Config{DegradeAt: 0.5})
	return c, c.NewGate(4, 16)
}

// observe sets a gate's counters to queued waiting and inFlight running
// requests and reads the controller as an arriving request's Enter does.
func observe(g *Gate, queued, inFlight int) State {
	g.queued.Store(int64(queued))
	g.inFlight.Store(int64(inFlight))
	return g.ctl.admit()
}

// TestControllerDegradesAfterSustainedPressure steps the pressure across
// DegradeAt and back: every admission at or above it is degraded for as long
// as the pressure holds, and the first one below it is healthy again. Each
// flip between consecutive admissions counts one entry.
func TestControllerDegradesAfterSustainedPressure(t *testing.T) {
	c, g := newTestController()

	for i, step := range []struct {
		queued, inFlight int
		want             State
	}{
		{0, 1, Healthy},   // 1/20 = 0.05
		{10, 4, Degraded}, // 0.7
		{10, 4, Degraded},
		{6, 4, Degraded}, // exactly DegradeAt
		{5, 4, Healthy},  // 0.45
		{5, 4, Healthy},
		{16, 4, Degraded}, // 1.0
		{0, 0, Healthy},
	} {
		if got := observe(g, step.queued, step.inFlight); got != step.want {
			t.Fatalf("admission %d at %d queued, %d in flight = %v, want %v", i, step.queued, step.inFlight, got, step.want)
		}
		if got := c.State(); got != step.want {
			t.Fatalf("State() after admission %d = %v, want %v", i, got, step.want)
		}
	}

	snap := c.Snapshot()
	if snap.Transitions["degraded"] != 2 || snap.Transitions["healthy"] != 2 {
		t.Fatalf("transitions = %v, want degraded:2 healthy:2", snap.Transitions)
	}
	if snap.Pressure != 0 || snap.State != Healthy {
		t.Fatalf("snapshot after the last admission = %v at pressure %v, want healthy at 0", snap.State, snap.Pressure)
	}
}

// TestFirstArrivalAtFullGateIsDegraded: the first request to reach a gate at
// or above DegradeAt is served degraded. No earlier admission has to have
// seen the pressure first.
func TestFirstArrivalAtFullGateIsDegraded(t *testing.T) {
	_, g := newTestController()
	g.queued.Store(10) // (10 + 3) / 20 = 0.65 when the request arrives
	g.inFlight.Store(3)
	release, state, err := g.Enter(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Enter with a free slot = %v, want admission", err)
	}
	defer release()
	if state != Degraded {
		t.Fatalf("first arrival at occupancy 0.65 = %v, want degraded", state)
	}
}

// TestControllerReadsFullestGate holds one gate at 90 % while a second gate
// admits requests: the idle gate's admissions must not hide the full one,
// so each of them is served degraded.
func TestControllerReadsFullestGate(t *testing.T) {
	c, busy := newTestController()
	idle := c.NewGate(4, 16)

	busy.queued.Store(14) // 18/20 = 0.9
	busy.inFlight.Store(4)
	for i := range 3 {
		release, state, err := idle.Enter(context.Background(), time.Second)
		if err != nil {
			t.Fatalf("Enter %d on the idle gate = %v", i, err)
		}
		release()
		if state != Degraded {
			t.Fatalf("Enter %d on the idle gate with the other at 90%% = %v, want degraded", i, state)
		}
	}
	if snap := c.Snapshot(); snap.Pressure != 0.9 || snap.Transitions["degraded"] != 1 {
		t.Fatalf("pressure %v, degraded entries %d, want the full gate's 0.9 and 1", snap.Pressure, snap.Transitions["degraded"])
	}
}

func TestControllerForceStateDisablesTransitions(t *testing.T) {
	c, g := newTestController()

	c.ForceState(Degraded)
	if got := c.State(); got != Degraded {
		t.Fatalf("forced state = %v, want degraded", got)
	}
	// No admission can move it.
	if got := observe(g, 0, 0); got != Degraded {
		t.Fatalf("state of an idle admission = %v, want pinned degraded", got)
	}
	c.ForceState(Healthy)
	if got := observe(g, 16, 4); got != Healthy {
		t.Fatalf("state of a saturated admission = %v, want pinned healthy", got)
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(Config{})
	if c.cfg.DegradeAt != 0.5 {
		t.Fatalf("default DegradeAt = %v, want 0.5", c.cfg.DegradeAt)
	}
	if got := c.State(); got != Healthy {
		t.Fatalf("initial state = %v, want healthy", got)
	}
	g := c.NewGate(4, 16)
	if got := observe(g, 5, 4); got != Healthy {
		t.Fatalf("admission at 0.45 = %v, want healthy", got)
	}
	if got := observe(g, 6, 4); got != Degraded {
		t.Fatalf("admission at the default 0.5 = %v, want degraded", got)
	}
}
