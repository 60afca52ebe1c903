package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at smoke scale against
// a daemon built from this checkout: the harness builds, every answer passes
// the oracle, and every metric BENCHMARK.json names is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots whydbd")
	}
	began := time.Now()
	cfg := config{seed: 1, seconds: 1, smoke: true}
	if err := cfg.prepare(); err != nil {
		t.Fatal(err)
	}
	sup := newSupervisor()
	defer sup.killAll()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			run := cfg
			run.workload, run.trace = name, trace
			res, err := run.run(sup)
			if err != nil {
				t.Fatalf("%s trace %v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < smokeRequests {
				t.Errorf("%s trace %v: correct %v, %d failed of %d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := 6
			if trace {
				want = 44
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace %v: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
		}
	}
	t.Logf("smoke: %.1f s", time.Since(began).Seconds())
}
