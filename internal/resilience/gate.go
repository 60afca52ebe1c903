package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// The rungs of the admission ladder that turn a request away. Enter returns
// one of them, or the context's own error when the request's deadline or
// cancellation ended the wait for a slot.
var (
	// ErrQueueFull: the gate's bounded queue has no place left.
	ErrQueueFull = errors.New("resilience: admission queue full")
	// ErrQueueWait: no execution slot came free within the maximum wait.
	ErrQueueWait = errors.New("resilience: no execution slot within the maximum queue wait")
)

// Gate admits requests to one dataset: at most Slots of them execute at
// once, at most QueueCap more wait for a slot. Create one with
// Controller.NewGate.
type Gate struct {
	ctl      *Controller
	sem      chan struct{}
	queueCap int
	queued   atomic.Int64
	inFlight atomic.Int64
}

// NewGate returns a gate over the given number of execution slots (at least
// one) whose queue holds queueCap waiting requests (0 = 4× the slots).
func (c *Controller) NewGate(slots, queueCap int) *Gate {
	slots = max(slots, 1)
	if queueCap == 0 {
		queueCap = 4 * slots
	}
	g := &Gate{ctl: c, sem: make(chan struct{}, slots), queueCap: queueCap}
	c.mu.Lock()
	c.gates = append(c.gates, g)
	c.mu.Unlock()
	return g
}

// Slots is the gate's execution-slot count.
func (g *Gate) Slots() int { return cap(g.sem) }

// QueueCap is the bound of the gate's queue.
func (g *Gate) QueueCap() int { return g.queueCap }

// InFlight is how many requests hold a slot right now.
func (g *Gate) InFlight() int { return int(g.inFlight.Load()) }

// Queued is how many requests wait for a slot right now.
func (g *Gate) Queued() int { return int(g.queued.Load()) }

// occupancy is (queued + in-flight) / (queue bound + slots).
func (g *Gate) occupancy() float64 {
	return float64(g.queued.Load()+g.inFlight.Load()) / float64(g.queueCap+cap(g.sem))
}

// Enter runs the overload-aware admission sequence for one request:
//
//  1. Step the brownout controller on the fullest of its gates' occupancy;
//     the state it returns sets the quality the request is served at, never
//     whether it is admitted.
//  2. Take a free execution slot at once, if there is one.
//  3. Otherwise claim a place in the bounded queue; none left is
//     ErrQueueFull.
//  4. Wait for an execution slot under ctx and maxWait; waiting out maxWait
//     is ErrQueueWait, ctx ending first is ctx.Err().
//
// On success err is nil and the caller must call release exactly once to
// free the slot. state is the brownout state the request must be served
// under; it is valid whatever err is.
func (g *Gate) Enter(ctx context.Context, maxWait time.Duration) (release func(), state State, err error) {
	state = g.ctl.admit()
	// Only a request that must wait takes a queue place: simultaneous
	// arrivals at a gate with free slots are never refused as a full queue.
	select {
	case g.sem <- struct{}{}:
		g.inFlight.Add(1)
		return g.leave, state, nil
	default:
	}
	if int(g.queued.Add(1)) > g.queueCap {
		g.queued.Add(-1)
		return nil, state, ErrQueueFull
	}
	defer g.queued.Add(-1)
	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		g.inFlight.Add(1)
		return g.leave, state, nil
	case <-timer.C:
		return nil, state, ErrQueueWait
	case <-ctx.Done():
		return nil, state, ctx.Err()
	}
}

// leave frees the slot Enter claimed.
func (g *Gate) leave() {
	g.inFlight.Add(-1)
	<-g.sem
}
