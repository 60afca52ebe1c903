// Package resilience is whydbd's overload layer: it owns the occupancy of the
// execution slots and every decision taken from it.
//
// One signal, two consumers. Each dataset admits requests through a Gate
// (execution-slot semaphore plus a bounded queue) the Controller creates.
// From the gates' occupancy the layer decides
//
//   - who may run: Gate.Enter is the admission ladder — slot, queue place,
//     queue wait. The full queue is the only overload refusal (429);
//   - at what quality: every Enter reads the pressure, the fullest gate's
//     occupancy, (queued + in-flight) / (queue bound + slots), over every
//     gate the controller created, and serves the arriving request degraded
//     when it is at or above DegradeAt.
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
// A request's quality is decided once, when it is admitted, from the
// contention it finds there. No earlier admission enters the decision, so a
// request that reaches idle gates right after a burst is served at full
// quality.
//
// The serving state is a function of its gates alone (or of ForceState's
// pin), which is what makes the brownout tests exact rather than
// sleep-and-hope.
package resilience

import "sync"

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
	// DegradeAt is the pressure at or above which an arriving request is
	// served degraded (0 = 0.5). Pressure is the fullest gate's occupancy.
	DegradeAt float64
}

func (c *Config) fill() {
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.5
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
	// State is the serving state of the latest admission.
	State State
	// Pressure is the fullest gate's occupancy at the latest admission.
	Pressure float64
	// Transitions counts entries into each state, one per flip between
	// consecutive admissions (the initial healthy state is not an entry).
	// Keys are the State strings.
	Transitions map[string]int64
	// QueueDepth and QueueCap sum, over the controller's gates, the requests
	// waiting for a slot and the queue bounds.
	QueueDepth, QueueCap int
}

// Controller serves each admission at the quality its gates' occupancy
// allows. All methods are safe for concurrent use.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	gates       []*Gate
	state       State   // the latest admission's state
	forced      bool    // ForceState pinned the state (tests, ops drills)
	pressure    float64 // the fullest gate's occupancy at the latest admission
	transitions [2]int64
}

// NewController returns a controller in the healthy state.
func NewController(cfg Config) *Controller {
	cfg.fill()
	return &Controller{cfg: cfg}
}

// State returns the serving state of the latest admission.
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

// admit reads the pressure of the moment — the largest occupancy,
// (queued + in-flight) / (queue bound + slots), over the controller's gates —
// and returns the serving state an arriving request must be handled under:
// degraded at or above DegradeAt, healthy below it.
func (c *Controller) admit() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := 0.0
	for _, g := range c.gates {
		p = max(p, g.occupancy())
	}
	c.pressure = p
	if !c.forced {
		s := Healthy
		if p >= c.cfg.DegradeAt {
			s = Degraded
		}
		c.setState(s)
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
