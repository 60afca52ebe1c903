package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestGateLadder walks every rung of Enter on a one-slot, one-place gate and
// checks the controller's totals follow the gate.
func TestGateLadder(t *testing.T) {
	c := NewController(Config{})
	g := c.NewGate(1, 1)
	c.NewGate(0, 0) // clamped to one slot, queue 4× that
	if total, widest := c.Slots(); total != 2 || widest != 1 {
		t.Fatalf("Slots() = %d, %d, want 2, 1", total, widest)
	}
	if snap := c.Snapshot(); snap.QueueCap != 1+4 || snap.QueueDepth != 0 {
		t.Fatalf("queue shape = depth %d cap %d, want 0/5", snap.QueueDepth, snap.QueueCap)
	}
	ctx := context.Background()

	release, state, err := g.Enter(ctx, time.Second)
	if err != nil || state != Healthy {
		t.Fatalf("Enter on an idle gate = %v, %v", state, err)
	}
	if g.InFlight() != 1 || c.Free() != 1 {
		t.Fatalf("after Enter: inFlight %d, free %d, want 1, 1", g.InFlight(), c.Free())
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
	if g.InFlight() != 0 || g.Queued() != 0 || c.Free() != 2 {
		t.Fatalf("after release: inFlight %d queued %d free %d, want 0 0 2", g.InFlight(), g.Queued(), c.Free())
	}

	c.ForceState(Shedding)
	if _, state, err := g.Enter(ctx, time.Minute); !errors.Is(err, ErrShedding) || state != Shedding {
		t.Fatalf("Enter while shedding = %v, %v", state, err)
	}
	if g.Queued() != 0 || c.Free() != 2 {
		t.Fatalf("a shed request touched the gate: queued %d free %d", g.Queued(), c.Free())
	}
}
