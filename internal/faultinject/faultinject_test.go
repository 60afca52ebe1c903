package faultinject

import (
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42,latency=0.1:5ms,error=0.05,cancel=0.03:4,starve=0.02:20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed:     42,
		PLatency: 0.1, LatencyDur: 5 * time.Millisecond,
		PError:  0.05,
		PCancel: 0.03, CancelAfter: 4,
		PStarve: 0.02, StarveDur: 20 * time.Millisecond,
	}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}

	// Defaults for omitted arguments and faults.
	cfg, err = ParseSpec("latency=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 || cfg.PLatency != 0.5 || cfg.LatencyDur != 5*time.Millisecond || cfg.PError != 0 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Each fault keeps its own default duration, whatever precedes it.
	for spec, want := range map[string][2]time.Duration{
		"starve=0.5":                {5 * time.Millisecond, 20 * time.Millisecond},
		"latency=0.1:1s,starve=0.2": {time.Second, 20 * time.Millisecond},
		"starve=0.2,latency=0.1:1s": {time.Second, 20 * time.Millisecond},
	} {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]time.Duration{cfg.LatencyDur, cfg.StarveDur}; got != want {
			t.Errorf("ParseSpec(%q): latency %v starve %v, want %v %v", spec, got[0], got[1], want[0], want[1])
		}
	}

	for _, bad := range []string{
		"latency",              // not key=value
		"latency=2",            // probability > 1
		"latency=0.1:xx",       // bad duration
		"error=0.1:5ms",        // error takes no argument
		"cancel=0.1:-1",        // negative execution count
		"seed=abc",             // bad seed
		"flood=0.5",            // unknown fault
		"rpc-error=0.1",        // unknown fault: there is no RPC to fail
		"error=0.6,cancel=0.6", // probabilities sum > 1
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestDecideDeterministic proves the draw stream is a pure function of
// (seed, site, sequence): two injectors with the same config agree draw for
// draw, and different seeds or sites produce different streams.
func TestDecideDeterministic(t *testing.T) {
	cfg, err := ParseSpec("seed=42,latency=0.1:5ms,error=0.05,cancel=0.03:4,starve=0.02:20ms")
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(cfg), New(cfg)
	counts := map[Kind]int{}
	for seq := uint64(0); seq < 4096; seq++ {
		da, db := a.Decide("explain", seq), b.Decide("explain", seq)
		if da != db {
			t.Fatalf("seq %d: %+v != %+v", seq, da, db)
		}
		counts[da.Kind]++
	}
	// Every fault kind must appear, at roughly its configured rate (loose
	// bounds: the gate is determinism, not distribution quality).
	for kind, p := range map[Kind]float64{Latency: 0.1, Error: 0.05, Cancel: 0.03, Starve: 0.02} {
		got := float64(counts[kind]) / 4096
		if got < p/2 || got > p*2 {
			t.Errorf("kind %v rate = %.3f, want ≈ %.2f (counts %v)", kind, got, p, counts)
		}
	}

	// Different sites and seeds decorrelate.
	same := 0
	for seq := uint64(0); seq < 512; seq++ {
		if a.Decide("explain", seq).Kind != None && a.Decide("match", seq).Kind != None {
			same++
		}
	}
	if same > 100 {
		t.Errorf("site streams look correlated: %d joint faults / 512", same)
	}
	cfg2 := cfg
	cfg2.Seed = 43
	c := New(cfg2)
	diff := false
	for seq := uint64(0); seq < 512 && !diff; seq++ {
		diff = a.Decide("explain", seq) != c.Decide("explain", seq)
	}
	if !diff {
		t.Error("seed 42 and 43 produced identical streams")
	}
}

// TestDecisionPayloads checks each kind carries its configured payload.
func TestDecisionPayloads(t *testing.T) {
	cfg, err := ParseSpec("seed=7,latency=0.25:9ms,error=0.25,cancel=0.25:6,starve=0.25:33ms")
	if err != nil {
		t.Fatal(err)
	}
	in := New(cfg)
	seen := map[Kind]bool{}
	for seq := uint64(0); seq < 256; seq++ {
		d := in.Decide("kernel", seq)
		seen[d.Kind] = true
		switch d.Kind {
		case Latency:
			if d.Latency != 9*time.Millisecond {
				t.Fatalf("latency payload = %v", d.Latency)
			}
		case Cancel:
			if d.CancelAfter != 6 {
				t.Fatalf("cancel payload = %d", d.CancelAfter)
			}
		case Starve:
			if d.Starve != 33*time.Millisecond {
				t.Fatalf("starve payload = %v", d.Starve)
			}
		}
	}
	for _, k := range []Kind{Latency, Error, Cancel, Starve} {
		if !seen[k] {
			t.Errorf("kind %v never drawn at p=0.25 over 256 draws", k)
		}
	}
}

// TestNilInjectorIsInert proves the disabled path needs no branching at call
// sites: a nil *Injector answers None forever.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if d := in.Decide("explain", 0); d.Kind != None {
		t.Fatalf("nil injector decided %+v", d)
	}
	if cfg := in.Config(); cfg != (Config{}) {
		t.Fatalf("nil injector config = %+v", cfg)
	}
}
