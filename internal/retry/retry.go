// Package retry is the jittered-exponential-backoff policy the load generator
// (cmd/whyload) uses when it retries the daemon's 429/503 overload answers.
//
// The policy is AWS-style "full jitter on the top half": attempt n waits
//
//	d = min(Base << n, Cap)
//	wait = d/2 + uniform[0, d/2]
//
// so the expected wait doubles per attempt while a shed fleet never returns
// in lockstep. A server-supplied Retry-After hint takes precedence when it is
// longer than the jittered wait: the server knows its own recovery horizon
// better than the client's backoff curve does.
package retry

import (
	"math/rand"
	"time"
)

// Policy computes backoff waits. A Policy is not safe for concurrent use
// (the RNG is stateful); give each worker its own, seeded distinctly so
// their jitter decorrelates.
type Policy struct {
	// Max is the retry budget: attempts are numbered 0..Max-1, so a caller
	// loops while attempt < Max.
	Max int
	// Base is the pre-jitter wait of attempt 0 (0 = 100ms).
	Base time.Duration
	// Cap bounds the pre-jitter wait of any attempt (0 = 2s).
	Cap time.Duration
	rng *rand.Rand
}

// New returns a policy with the given retry budget and backoff curve,
// jittered by the seed. Zero base/cap pick the documented defaults.
func New(max int, base, cap time.Duration, seed int64) *Policy {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	return &Policy{Max: max, Base: base, Cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Backoff returns the wait before retry attempt (0-based), honoring a
// Retry-After hint when the server sent one: the wait is never shorter than
// the hint. The jittered wait lies in [d/2, d] for d = min(Base<<attempt,
// Cap). Pure of clocks and sleeps, so tests can assert its bounds exactly.
func (p *Policy) Backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := p.Base
	// Guard the shift: a pathological attempt count must saturate at Cap,
	// not overflow into a negative duration.
	if attempt > 0 {
		if attempt >= 30 || p.Base<<attempt > p.Cap || p.Base<<attempt < p.Base {
			d = p.Cap
		} else {
			d = p.Base << attempt
		}
	}
	if d > p.Cap {
		d = p.Cap
	}
	// Full jitter on the backoff half: [d/2, d].
	d = d/2 + time.Duration(p.rng.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Sleep blocks for Backoff(attempt, retryAfter).
func (p *Policy) Sleep(attempt int, retryAfter time.Duration) {
	time.Sleep(p.Backoff(attempt, retryAfter))
}
