package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The expected cut points are what Python prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.1, 3.5, 3.6, 4.0, 9.9}, [3]float64{2.8, 3.6, 6.95}},
		{[]float64{1, 2, 2, 4, 5, 7, 8}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
	}
}

func runsOf(workload string, metric string, values ...float64) []run {
	var rs []run
	for _, v := range values {
		r := run{Workload: workload, Attempted: 100}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{metric: {v}}
		rs = append(rs, r)
	}
	return rs
}

func TestVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	base := runsOf("w", "p50_ms", 1.00, 1.01, 0.99, 1.02, 0.98)
	for _, tc := range []struct {
		name      string
		b         []run
		verdict   string
		regressed bool
	}{
		{"within the bound", runsOf("w", "p50_ms", 1.05, 1.06, 1.04, 1.05, 1.07), "ok", false},
		{"better", runsOf("w", "p50_ms", 0.5, 0.51, 0.49, 0.5, 0.5), "ok", false},
		{"worse than the bound", runsOf("w", "p50_ms", 1.20, 1.21, 1.19, 1.2, 1.22), "REGRESSION", true},
		{"too noisy to tell", runsOf("w", "p50_ms", 1.0, 1.5, 0.7, 1.9, 1.2), "unresolved", false},
	} {
		out, err := os.Create(filepath.Join(t.TempDir(), "report"))
		if err != nil {
			t.Fatal(err)
		}
		regressed := report(out, sp, base, tc.b)
		out.Close()
		text, _ := os.ReadFile(out.Name())
		if regressed != tc.regressed || !strings.Contains(string(text), tc.verdict+" (n=5/5") {
			t.Errorf("%s: regressed=%v, report:\n%s", tc.name, regressed, text)
		}
	}
	// A failed request on the candidate side is a regression whatever the timings say.
	bad := runsOf("w", "p50_ms", 1, 1, 1, 1, 1)
	bad[0].Failed = 1
	out, err := os.Create(filepath.Join(t.TempDir(), "report"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if !report(out, sp, base, bad) {
		t.Error("a risen error rate was not reported as a regression")
	}
}
