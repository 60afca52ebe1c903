// Command compare judges two sets of whybench runs against the bounds in
// BENCHMARK.json:
//
//	go run ./compare A.jsonl B.jsonl      # from bench/; A is the base, B the candidate
//
// Each file is what `whybench -out` appends: one JSON object per run. For
// every workload and end-to-end metric it prints one row — both medians, the
// ratio with its base, both run-to-run spreads — and a verdict: "ok" when B's
// median is no worse than A's by more than the metric's bound, "REGRESSION"
// when it is, and "unresolved" when either side's own spread (interquartile
// range over median) exceeds the bound, because then the runs cannot tell.
// Any rise of the error rate is a regression. Per-layer metrics, where both
// files hold traced runs, are listed without a verdict: they have no bound.
// The exit code is 1 if any row is a regression.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one line of a whybench -out file.
type run struct {
	Workload  string `json:"workload"`
	Trace     int    `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare A.jsonl B.jsonl")
		os.Exit(2)
	}
	regressed, err := compare(os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func compare(pathA, pathB string) (regressed bool, err error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	return report(os.Stdout, sp, a, b), nil
}

// loadSpec finds BENCHMARK.json in the working directory or above it.
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		blob, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var sp spec
			if err := json.Unmarshal(blob, &sp); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &sp, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// values collects one metric of one workload over a set's runs.
func values(runs []run, workload string, trace int, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			xs = append(xs, m.Value)
		}
	}
	sort.Float64s(xs)
	return xs
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method) for an ascending slice of at least two.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	m := len(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// center returns a set's median and its spread: the distance between the
// first and the third quartile as a share of the median (0 for one run).
func center(xs []float64) (median, spread float64) {
	if len(xs) == 1 {
		return xs[0], 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}

// errorRate is failed over attempted across a workload's runs.
func errorRate(runs []run, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// report prints the rows and says whether any is a regression.
func report(w *os.File, sp *spec, a, b []run) (regressed bool) {
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		fmt.Fprintf(w, "  %-30s %12s %12s %9s %8s %8s %6s  %s\n", "metric", "A median", "B median", "B/A", "A spread", "B spread", "bound", "verdict")
		row := func(m metricSpec, trace int) {
			xa, xb := values(a, wl.Name, trace, m.Name), values(b, wl.Name, trace, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return
			}
			ma, sa := center(xa)
			mb, sb := center(xb)
			worse := mb/ma - 1
			if m.Better == "higher" {
				worse = 1 - mb/ma
			}
			verdict := "-"
			switch {
			case m.Bound == 0:
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, regressed = "REGRESSION", true
			default:
				verdict = "ok"
			}
			fmt.Fprintf(w, "  %-30s %12.4f %12.4f %8.3fx %7.1f%% %7.1f%% %5.0f%%  %s (n=%d/%d, %s, %s is better)\n",
				m.Name, ma, mb, mb/ma, 100*sa, 100*sb, 100*m.Bound, verdict, len(xa), len(xb), m.Unit, m.Better)
		}
		for _, m := range sp.EndToEnd {
			row(m, 0)
		}
		ea, eb := errorRate(a, wl.Name), errorRate(b, wl.Name)
		verdict := "ok"
		if eb > ea {
			verdict, regressed = "REGRESSION", true
		}
		fmt.Fprintf(w, "  %-30s %12.6f %12.6f %47s  %s (failed/attempted; any rise is a regression)\n", "error_rate", ea, eb, "", verdict)
		for _, m := range sp.PerLayer {
			row(m, 1)
		}
	}
	return regressed
}
