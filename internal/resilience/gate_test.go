package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestGateLadder walks every rung of Enter on a one-slot, one-place gate and
// checks the controller's queue totals follow the gate.
func TestGateLadder(t *testing.T) {
	c := NewController(Config{})
	g := c.NewGate(1, 1)
	if other := c.NewGate(0, 0); g.Slots() != 1 || other.Slots() != 1 || other.QueueCap() != 4 {
		t.Fatalf("slots %d and %d, second queue %d, want 1, 1 (clamped) and 4", g.Slots(), other.Slots(), other.QueueCap())
	}
	if snap := c.Snapshot(); snap.QueueCap != 1+4 || snap.QueueDepth != 0 {
		t.Fatalf("queue shape = depth %d cap %d, want 0/5", snap.QueueDepth, snap.QueueCap)
	}
	ctx := context.Background()

	release, state, err := g.Enter(ctx, time.Second)
	if err != nil || state != Healthy {
		t.Fatalf("Enter on an idle gate = %v, %v", state, err)
	}
	if g.InFlight() != 1 {
		t.Fatalf("after Enter: inFlight %d, want 1", g.InFlight())
	}

	if _, _, err := g.Enter(ctx, 10*time.Millisecond); !errors.Is(err, ErrQueueWait) {
		t.Fatalf("Enter past the max wait = %v, want ErrQueueWait", err)
	}
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := g.Enter(gone, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enter under a cancelled context = %v, want context.Canceled", err)
	}

	// One waiter fills the queue; the next request finds it full.
	admitted := make(chan func())
	go func() {
		release, _, err := g.Enter(ctx, time.Minute)
		if err != nil {
			t.Errorf("queued Enter = %v", err)
			release = func() {}
		}
		admitted <- release
	}()
	for deadline := time.Now().Add(10 * time.Second); g.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if depth := c.Snapshot().QueueDepth; depth != 1 {
		t.Fatalf("snapshot queue depth = %d, want 1", depth)
	}
	if _, _, err := g.Enter(ctx, time.Minute); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Enter on a full queue = %v, want ErrQueueFull", err)
	}
	release()
	(<-admitted)()
	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("after release: inFlight %d queued %d, want 0 0", g.InFlight(), g.Queued())
	}
}

// TestIdleGateAdmitsAfterSaturation degrades an arrival at the full test
// gate, then empties it: the next request must take a slot and be served at
// full quality. The brownout state sets only the quality a request is served
// at, and only the contention it finds when it arrives sets that; the full
// queue is the only refusal.
func TestIdleGateAdmitsAfterSaturation(t *testing.T) {
	c, g := newTestController()
	if got := observe(g, 16, 4); got != Degraded {
		t.Fatalf("arrival at the full gate = %v, want degraded", got)
	}

	g.queued.Store(0)
	g.inFlight.Store(0)
	release, state, err := g.Enter(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Enter on an idle gate after saturation = %v, want a slot", err)
	}
	defer release()
	if g.InFlight() != 1 || g.Queued() != 0 {
		t.Fatalf("after Enter: inFlight %d queued %d, want 1 0", g.InFlight(), g.Queued())
	}
	if state != Healthy {
		t.Fatalf("Enter on an idle gate after saturation = %v at pressure %v, want healthy", state, c.Snapshot().Pressure)
	}
}

// TestGateFreeSlotNeedsNoQueuePlace sets the queue count to its bound while a
// slot is free, as concurrent arrivals leave it in the instant between
// claiming a place and taking their slots: the next request takes the free
// slot instead of being refused as a full queue.
func TestGateFreeSlotNeedsNoQueuePlace(t *testing.T) {
	g := NewController(Config{}).NewGate(2, 1)
	g.queued.Store(1)
	release, _, err := g.Enter(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Enter with a free slot and a counted-full queue = %v, want admission", err)
	}
	if g.InFlight() != 1 || g.Queued() != 1 {
		t.Fatalf("after Enter: inFlight %d queued %d, want 1 1", g.InFlight(), g.Queued())
	}
	release()
}
