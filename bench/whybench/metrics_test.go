package main

import (
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// referencePercentile is the definition spelled out: sort, then take the
// smallest value that has at least p·n values at or below it.
func referencePercentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		if float64(i+1) >= p*float64(len(sorted)) {
			return x
		}
	}
	return math.NaN()
}

func TestPercentileAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 10, 99, 100, 101, 1000, 6000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		d := summarize(xs)
		if want := referencePercentile(xs, 0.5); d.P50 != want {
			t.Errorf("n=%d: p50 %v, reference %v", n, d.P50, want)
		}
		if want := referencePercentile(xs, 0.99); d.P99 != want {
			t.Errorf("n=%d: p99 %v, reference %v", n, d.P99, want)
		}
		beyond := 0
		for _, x := range xs {
			if x > d.P99 {
				beyond++
			}
		}
		if d.TailOK != (beyond >= 10) {
			t.Errorf("n=%d: %d samples beyond p99 but TailOK=%v", n, beyond, d.TailOK)
		}
	}
	if !math.IsNaN(summarize(nil).P50) {
		t.Error("the median of nothing is a number")
	}
	// 6 000 samples leave 60 beyond p99; 1 000 leave exactly ten; 999 do not.
	if !supports(6000, 0.99) || !supports(1000, 0.99) || supports(999, 0.99) {
		t.Error("the ten-samples-beyond rule is off")
	}
}

func TestScanCount(t *testing.T) {
	for body, want := range map[string]int{
		`{"requestId":"0000002a","data":{"count":17}}`:                                          17,
		`{"requestId":"x","data":{"count":2,"results":[{"vertices":{"0":5},"edges":{"0":9}}]}}`: 2,
		`{"requestId":"x","error":{"code":"shed"}}`:                                             -1,
		`{"requestId":"x","data":{"count":}}`:                                                   -1,
	} {
		if got := scanCount([]byte(body)); got != want {
			t.Errorf("scanCount(%s) = %d, want %d", body, got, want)
		}
	}
}

func TestProcReaders(t *testing.T) {
	for _, pid := range []int{0, os.Getpid()} {
		if cpu, err := cpuClock(pid); err != nil || cpu <= 0 {
			t.Errorf("cpuClock(%d): %v, %v", pid, cpu, err)
		}
	}
	if _, err := cpuClock(1<<22 + 1); err == nil {
		t.Error("cpuClock of a pid above pid_max: no error")
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("peakRSSMB: %v, %v", rss, err)
	}
}
