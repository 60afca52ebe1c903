// Package faultinject is whydbd's deterministic, seeded fault injector.
//
// Resilience code that only runs during real outages is untested code. This
// package makes every failure path reproducibly reachable: an Injector draws
// from a seeded splitmix64 stream per hook site, so the same spec and the
// same request sequence inject the same faults — in unit tests, in the CI
// chaos gate, and in local repro runs.
//
// Four fault kinds, matching the failure shapes whyload exposed:
//
//	latency  sleep before handling (queue pile-up, slow dependency)
//	error    fail the request with an injected 500 (backend fault)
//	cancel   cancel the request context after N kernel candidate
//	         executions (mid-search client disconnect / deadline)
//	starve   hold the admission slot extra time after finishing
//	         (slot leak / slow release)
//
// The injector is wired at two layers: the server handlers consult Decide at
// admission (latency, error, starve), and the kernel's Control.Probe hook
// consults it per search run (cancel). It is enabled only by the explicit
// whydbd -inject flag; a nil *Injector is inert and every call on it is safe.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind is one injected fault type.
type Kind int

const (
	// None means no fault for this draw.
	None Kind = iota
	// Latency sleeps Decision.Latency before handling the request.
	Latency
	// Error fails the request with an injected error response.
	Error
	// Cancel cancels the request context after Decision.CancelAfter kernel
	// candidate executions.
	Cancel
	// Starve holds the admission slot for Decision.Starve after the request
	// finishes.
	Starve
)

// String names the kind for logs and test failures.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Error:
		return "error"
	case Cancel:
		return "cancel"
	case Starve:
		return "starve"
	default:
		return "none"
	}
}

// Decision is one draw's outcome.
type Decision struct {
	Kind Kind
	// Latency is the injected delay (Kind == Latency).
	Latency time.Duration
	// CancelAfter is the kernel execution count after which the request
	// context is cancelled (Kind == Cancel).
	CancelAfter int
	// Starve is how long the admission slot is held after the request
	// finishes (Kind == Starve).
	Starve time.Duration
}

// Config is a parsed injection spec.
type Config struct {
	// Seed keys the deterministic draw stream.
	Seed uint64
	// PLatency, PError, PCancel, PStarve are per-request fault
	// probabilities; their sum must be ≤ 1.
	PLatency, PError, PCancel, PStarve float64
	// LatencyDur is the injected delay for latency faults.
	LatencyDur time.Duration
	// CancelAfter is the execution count for cancel faults.
	CancelAfter int
	// StarveDur is the slot-hold time for starve faults.
	StarveDur time.Duration
}

// ParseSpec parses the whydbd -inject flag value, a comma-separated list:
//
//	seed=42,latency=0.1:5ms,error=0.05,cancel=0.03:4,starve=0.02:20ms
//
// latency and starve take probability:duration, cancel takes
// probability:executions, error takes a bare probability. Omitted faults have
// probability zero; the probabilities must sum to ≤ 1.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1, LatencyDur: 5 * time.Millisecond, CancelAfter: 4, StarveDur: 20 * time.Millisecond}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("faultinject: %q is not key=value", part)
		}
		prob, arg, hasArg := strings.Cut(v, ":")
		p, perr := strconv.ParseFloat(prob, 64)
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faultinject: bad seed %q", v)
			}
			cfg.Seed = n
			continue
		case "latency", "error", "cancel", "starve":
			if perr != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("faultinject: bad probability in %q", part)
			}
		default:
			return Config{}, fmt.Errorf("faultinject: unknown fault %q", k)
		}
		switch k {
		case "latency", "starve":
			// Each fault keeps its own default duration when it names none.
			rate, dur := &cfg.PLatency, &cfg.LatencyDur
			if k == "starve" {
				rate, dur = &cfg.PStarve, &cfg.StarveDur
			}
			if hasArg {
				d, err := time.ParseDuration(arg)
				if err != nil || d < 0 {
					return Config{}, fmt.Errorf("faultinject: bad duration in %q", part)
				}
				*dur = d
			}
			*rate = p
		case "error":
			if hasArg {
				return Config{}, fmt.Errorf("faultinject: error takes no argument in %q", part)
			}
			cfg.PError = p
		case "cancel":
			if hasArg {
				n, err := strconv.Atoi(arg)
				if err != nil || n < 0 {
					return Config{}, fmt.Errorf("faultinject: bad execution count in %q", part)
				}
				cfg.CancelAfter = n
			}
			cfg.PCancel = p
		}
	}
	if sum := cfg.PLatency + cfg.PError + cfg.PCancel + cfg.PStarve; sum > 1 {
		return Config{}, fmt.Errorf("faultinject: fault probabilities sum to %.2f > 1", sum)
	}
	return cfg, nil
}

// Injector draws deterministic fault decisions. A nil Injector never injects.
// Injector is safe for concurrent use: each draw is an atomic-free pure
// function of (seed, site, sequence), with per-site sequences maintained by
// the caller-provided sequence numbers — see Decide.
type Injector struct {
	cfg Config
}

// New returns an injector for the config. Use ParseSpec to build one from
// the flag spec.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Config returns the injector's configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Decide draws the fault decision for the seq-th event at a named hook site
// ("explain", "match", "kernel", ...). The draw is a pure function of
// (seed, site, seq): replaying the same request sequence replays the same
// faults, which is what makes the chaos gate's assertions exact.
func (in *Injector) Decide(site string, seq uint64) Decision {
	if in == nil {
		return Decision{}
	}
	u := uniform(in.cfg.Seed ^ siteHash(site) ^ (seq * 0x9e3779b97f4a7c15))
	c := in.cfg
	switch {
	case u < c.PLatency:
		return Decision{Kind: Latency, Latency: c.LatencyDur}
	case u < c.PLatency+c.PError:
		return Decision{Kind: Error}
	case u < c.PLatency+c.PError+c.PCancel:
		return Decision{Kind: Cancel, CancelAfter: c.CancelAfter}
	case u < c.PLatency+c.PError+c.PCancel+c.PStarve:
		return Decision{Kind: Starve, Starve: c.StarveDur}
	default:
		return Decision{}
	}
}

// siteHash folds a hook-site name into the seed (FNV-1a).
func siteHash(site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// uniform maps a 64-bit state to [0, 1) via one splitmix64 round.
func uniform(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
