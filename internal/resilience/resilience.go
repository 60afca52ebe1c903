// Package resilience is whydbd's overload layer: it owns the occupancy of the
// execution slots and every decision taken from it.
//
// One signal, two consumers. Each dataset admits requests through a Gate
// (execution-slot semaphore plus a bounded queue) the Controller creates.
// From the gates' occupancy the layer decides
//
//   - who may run: Gate.Enter is the admission ladder — slot, queue place,
//     queue wait. The full queue is the only overload refusal (429);
//   - at what quality: every Enter steps a two-state brownout controller
//     whose pressure is the fullest gate's occupancy, (queued + in-flight) /
//     (queue bound + slots), read over every gate the controller created.
//
// Occupancy is the only signal. By Little's law a queue's occupancy is its
// arrival rate times its latency, so slowness under contention shows up in
// it; a slow request with no contention does not, and degrading it would
// free no slot for anyone.
//
// The brownout states:
//
//	healthy   serve everything at full quality
//	degraded  explains run with a reduced execution budget and an ε-optimal
//	          early stop (kernel-level Stop predicate); responses are marked
//	          degraded and carry the achieved quality bound
//
// The controller never refuses a request: under contention it lowers the
// quality of what it serves, and only a request that finds the bounded queue
// full is turned away.
//
// This is the anytime-answer posture of the provenance literature (PUG, Lee
// et al. 2018): under contention, a bounded-quality explanation delivered now
// beats an optimal one delivered after the queue collapses — or a refusal.
// Degrading requires the pressure to hold at or above DegradeAt for
// EnterHold — a queue blip does not brown the fleet out — and recovering
// requires it to hold below for ExitHold, so the controller never flaps
// around the threshold.
//
// The controller is a function of its gates and its clock alone (Config.Now
// is injectable), which is what makes the brownout tests exact rather than
// sleep-and-hope.
package resilience

import (
	"sync"
	"time"
)

// State is the brownout controller's serving state.
type State int32

const (
	// Healthy serves every request at full quality.
	Healthy State = iota
	// Degraded serves explains under a reduced budget with an ε-optimal
	// early stop, marking responses as degraded.
	Degraded
)

// String names the state for stats and logs.
func (s State) String() string {
	if s == Degraded {
		return "degraded"
	}
	return "healthy"
}

// Config tunes the controller. The zero value picks the documented defaults.
type Config struct {
	// DegradeAt is the pressure at or above which the controller degrades
	// (0 = 0.5). Pressure is the fullest gate's occupancy.
	DegradeAt float64
	// EnterHold is how long pressure must hold at or above DegradeAt before
	// the controller degrades (0 = 250ms).
	EnterHold time.Duration
	// ExitHold is how long pressure must hold below DegradeAt before the
	// controller recovers to healthy (0 = 2s).
	ExitHold time.Duration
	// Now is the controller's clock (nil = time.Now); injectable for
	// deterministic tests.
	Now func() time.Time
}

func (c *Config) fill() {
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.5
	}
	if c.EnterHold == 0 {
		c.EnterHold = 250 * time.Millisecond
	}
	if c.ExitHold == 0 {
		c.ExitHold = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// The quality clamps a degraded explain runs under.
const (
	// DegradedBudgetFrac scales the explain execution budget (the result is
	// clamped to at least one execution).
	DegradedBudgetFrac = 0.25
	// DegradedMaxRewritings caps the reported rewritings.
	DegradedMaxRewritings = 1
	// DegradedEpsilon is the ε-optimal early-stop threshold of fine-grained
	// searches: the search may stop once its best-so-far cardinality
	// distance is ≤ DegradedEpsilon.
	DegradedEpsilon = 2
)

// Snapshot is the controller's observable state for /v1/stats.
type Snapshot struct {
	// State is the current serving state.
	State State
	// Pressure is the fullest gate's occupancy at the latest admission.
	Pressure float64
	// Transitions counts entries into each state (the initial healthy state
	// is not an entry). Keys are the State strings.
	Transitions map[string]int64
	// QueueDepth and QueueCap sum, over the controller's gates, the requests
	// waiting for a slot and the queue bounds.
	QueueDepth, QueueCap int
}

// Controller is the brownout state machine over its gates' occupancy. All
// methods are safe for concurrent use.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	gates       []*Gate
	state       State
	forced      bool      // ForceState pinned the state (tests, ops drills)
	pressure    float64   // the fullest gate's occupancy at the latest admission
	above       bool      // pressure ≥ DegradeAt at the latest admission
	since       time.Time // when pressure last crossed DegradeAt
	transitions [2]int64
}

// NewController returns a controller in the healthy state.
func NewController(cfg Config) *Controller {
	cfg.fill()
	return &Controller{cfg: cfg}
}

// State returns the current serving state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// ForceState pins the controller to a state, disabling automatic
// transitions — a hook for tests and operator drills.
func (c *Controller) ForceState(s State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setState(s)
	c.forced = true
}

// admit steps the state machine on the pressure of the moment — the largest
// occupancy, (queued + in-flight) / (queue bound + slots), over the
// controller's gates — and returns the serving state an arriving request
// must be handled under.
func (c *Controller) admit() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := 0.0
	for _, g := range c.gates {
		p = max(p, g.occupancy())
	}
	c.pressure = p
	now := c.cfg.Now()
	if above := p >= c.cfg.DegradeAt; above != c.above {
		c.above, c.since = above, now
	}
	if c.forced {
		return c.state
	}
	held := now.Sub(c.since)
	switch {
	case c.state == Healthy && c.above && held >= c.cfg.EnterHold:
		c.setState(Degraded)
	case c.state == Degraded && !c.above && held >= c.cfg.ExitHold:
		c.setState(Healthy)
	}
	return c.state
}

// setState transitions and counts the entry. Callers hold mu.
func (c *Controller) setState(s State) {
	if c.state == s {
		return
	}
	c.state = s
	c.transitions[s]++
}

// Snapshot returns the controller's observable state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		State:       c.state,
		Pressure:    c.pressure,
		Transitions: make(map[string]int64, len(c.transitions)),
	}
	for s, n := range c.transitions {
		snap.Transitions[State(s).String()] = n
	}
	for _, g := range c.gates {
		snap.QueueDepth += g.Queued()
		snap.QueueCap += g.queueCap
	}
	return snap
}
