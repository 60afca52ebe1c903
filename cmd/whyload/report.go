package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"slices"
	"time"

	"repro/internal/wire"
)

// latStats summarizes one latency distribution in milliseconds; Count is the
// number of latencies in it.
type latStats struct {
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
	MeanMs float64 `json:"meanMs"`
	Count  int     `json:"count"`
}

// latencyStats computes the summary of lats, nil when there are none.
// Percentiles are nearest-rank.
func latencyStats(lats []time.Duration) *latStats {
	if len(lats) == 0 {
		return nil
	}
	sorted := slices.Sorted(slices.Values(lats))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	at := func(q float64) float64 {
		return ms(sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)])
	}
	var total time.Duration
	for _, l := range sorted {
		total += l
	}
	return &latStats{
		P50Ms: at(0.50), P95Ms: at(0.95), P99Ms: at(0.99), MaxMs: ms(sorted[len(sorted)-1]),
		MeanMs: ms(total) / float64(len(sorted)), Count: len(sorted),
	}
}

// kindStats aggregates one request kind's outcomes; the latencies are those
// of its requests that did not fail.
type kindStats struct {
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	latStats
}

// summary is the machine-readable run report (-out, uploaded as a CI
// artifact). The top-level latencies are over every request that did not
// fail (`count` of them); a request's latency spans its retries.
type summary struct {
	Target      string  `json:"target"`
	Mix         string  `json:"mix"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	DurationMs  float64 `json:"durationMs"`
	RPS         float64 `json:"rps"`
	latStats
	PerKind map[string]kindStats `json:"perKind"`

	// Overload and fault accounting (see the class comments).
	Retries              int `json:"retries"`
	ShedExhausted        int `json:"shedExhausted"`
	Injected             int `json:"injected"`
	InjectedExhausted    int `json:"injectedExhausted"`
	Expired              int `json:"expired"`
	Transport            int `json:"transport"`
	Degraded             int `json:"degraded"`
	DegradedMissingBound int `json:"degradedMissingBound"`
	Unexplained5xx       int `json:"unexplained5xx"`
	CorpusSkipped        int `json:"corpusSkipped"`

	// Anytime latency of the stream mix: time from request start to the
	// first improvement event (TTFE) and to the done event (converged).
	TTFEMs        *latStats `json:"ttfeMs,omitempty"`
	TTConvergedMs *latStats `json:"ttconvergedMs,omitempty"`

	// Batch jobs in the mix: batches sent, items carried, items that failed
	// hard or with a tolerated overload answer, item throughput, and per-item
	// latency (every served item observes its batch's wall latency — the
	// time a batched caller waits for that answer).
	Batches           int       `json:"batches,omitempty"`
	BatchItems        int       `json:"batchItems,omitempty"`
	BatchItemErrors   int       `json:"batchItemErrors,omitempty"`
	BatchItemOverload int       `json:"batchItemOverload,omitempty"`
	ItemRPS           float64   `json:"itemRps,omitempty"`
	PerItemMs         *latStats `json:"perItemMs,omitempty"`

	// Stats is the daemon's GET /v1/stats after the run — kernel counters,
	// brownout transitions, speculation pool — unselected.
	Stats *wire.StatsResponse `json:"stats,omitempty"`
}

// normalize maps overload classes to hard errors outside chaos runs: a
// plain smoke run has no business expiring, exhausting retries, or losing
// connections, so those outcomes must fail it; a chaos run expects them.
func normalize(c class, chaos bool) class {
	if !chaos && (c == clsExpired || c == clsShedExhausted || c == clsInjectedExhausted || c == clsTransport) {
		return clsError
	}
	return c
}

// summarize aggregates a run's samples. What the daemon's documented
// overload answers count as depends on chaos (see normalize); the caller
// fills in the run's identity (target, mix, …) and the daemon's stats.
func summarize(samples []sample, chaos bool, elapsed time.Duration) summary {
	sum := summary{
		Requests:   len(samples),
		DurationMs: float64(elapsed.Nanoseconds()) / 1e6,
		RPS:        float64(len(samples)) / elapsed.Seconds(),
		PerKind:    map[string]kindStats{},
	}
	var all, ttfes, ttconvs, perItem []time.Duration
	perKind := map[string][]time.Duration{}
	count := func(n *int, cond bool) {
		if cond {
			*n++
		}
	}
	for _, s := range samples {
		ks := sum.PerKind[s.kind]
		ks.Requests++
		sum.Retries += s.retries
		if s.kind == "batch" {
			sum.Batches++
			sum.BatchItems += s.items
			hard, tolerated := s.itemErrors, s.itemOverload
			if !chaos {
				// Outside chaos an overloaded item is as wrong as any
				// other failed item, mirroring normalize().
				hard, tolerated = hard+tolerated, 0
			}
			sum.BatchItemErrors += hard
			sum.BatchItemOverload += tolerated
			for n := s.items - hard - tolerated; n > 0; n-- {
				perItem = append(perItem, s.lat)
			}
		}
		count(&sum.Degraded, s.degraded)
		count(&sum.DegradedMissingBound, s.missingBound)
		count(&sum.Transport, s.class == clsTransport)
		switch cls := normalize(s.class, chaos); cls {
		case clsError:
			sum.Errors++
			ks.Errors++
			// A transport casualty never had a daemon-composed body to
			// explain itself with — it is not an unexplained 5xx.
			count(&sum.Unexplained5xx, s.class != clsTransport && s.status >= 500 && s.status != http.StatusGatewayTimeout)
		default:
			count(&sum.Injected, cls == clsInjected)
			count(&sum.Expired, cls == clsExpired)
			count(&sum.ShedExhausted, cls == clsShedExhausted)
			count(&sum.InjectedExhausted, cls == clsInjectedExhausted)
			all = append(all, s.lat)
			perKind[s.kind] = append(perKind[s.kind], s.lat)
			// Anytime latencies of streams that finished; one that died
			// after its first improvement has a ttfe and is not counted.
			if s.class == clsOK && s.ttfe > 0 {
				ttfes = append(ttfes, s.ttfe)
			}
			if s.class == clsOK && s.ttconverged > 0 {
				ttconvs = append(ttconvs, s.ttconverged)
			}
		}
		sum.PerKind[s.kind] = ks
	}
	for kind, ks := range sum.PerKind {
		if ls := latencyStats(perKind[kind]); ls != nil {
			ks.latStats = *ls
			sum.PerKind[kind] = ks
		}
	}
	if ls := latencyStats(all); ls != nil {
		sum.latStats = *ls
	}
	sum.TTFEMs, sum.TTConvergedMs, sum.PerItemMs = latencyStats(ttfes), latencyStats(ttconvs), latencyStats(perItem)
	if sum.BatchItems > 0 {
		sum.ItemRPS = float64(sum.BatchItems) / elapsed.Seconds()
	}
	return sum
}

// failed reports whether the run must exit non-zero.
func (sum *summary) failed() bool {
	return sum.Errors > 0 || sum.BatchItemErrors > 0 || sum.DegradedMissingBound > 0
}

// print writes the human-readable report: the run's own numbers only — the
// daemon's stats are in the -out file.
func (sum *summary) print(w io.Writer) {
	fmt.Fprintf(w, "whyload: %s mix against %s, %d workers\n", sum.Mix, sum.Target, sum.Concurrency)
	fmt.Fprintf(w, "  %d requests in %.2fs → %.1f req/s, %d errors\n", sum.Requests, sum.DurationMs/1e3, sum.RPS, sum.Errors)
	fmt.Fprintf(w, "  latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f mean=%.2f\n", sum.P50Ms, sum.P95Ms, sum.P99Ms, sum.MaxMs, sum.MeanMs)
	for _, kind := range slices.Sorted(maps.Keys(sum.PerKind)) {
		ks := sum.PerKind[kind]
		fmt.Fprintf(w, "  %-8s %5d requests, %d errors, p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			kind, ks.Requests, ks.Errors, ks.P50Ms, ks.P95Ms, ks.P99Ms, ks.MaxMs)
	}
	if q := sum.TTFEMs; q != nil {
		fmt.Fprintf(w, "  anytime ms: ttfe p50=%.2f p99=%.2f max=%.2f (%d streams)", q.P50Ms, q.P99Ms, q.MaxMs, q.Count)
		if c := sum.TTConvergedMs; c != nil {
			fmt.Fprintf(w, ", converged p50=%.2f p99=%.2f", c.P50Ms, c.P99Ms)
		}
		fmt.Fprintln(w)
	}
	if sum.Batches > 0 {
		fmt.Fprintf(w, "  batch: %d batches carrying %d items (%d item errors, %d item overload), %.1f items/s",
			sum.Batches, sum.BatchItems, sum.BatchItemErrors, sum.BatchItemOverload, sum.ItemRPS)
		if q := sum.PerItemMs; q != nil {
			fmt.Fprintf(w, ", per-item p50=%.2f p99=%.2f max=%.2f", q.P50Ms, q.P99Ms, q.MaxMs)
		}
		fmt.Fprintln(w)
	}
	if sum.Retries+sum.Degraded+sum.Injected+sum.Expired+sum.Transport+sum.ShedExhausted+sum.InjectedExhausted+sum.CorpusSkipped > 0 {
		fmt.Fprintf(w, "  overload: %d retries, %d degraded (%d missing bound), %d injected (%d exhausted), %d expired, %d shed-exhausted, %d transport, %d corpus-skipped\n",
			sum.Retries, sum.Degraded, sum.DegradedMissingBound, sum.Injected, sum.InjectedExhausted, sum.Expired, sum.ShedExhausted, sum.Transport, sum.CorpusSkipped)
	}
}

func (sum *summary) write(path string) error {
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// fetchStats reads the daemon's stats. A stats failure never fails the load
// run — the counters are observability, not the workload — so it degrades to
// a warning and a nil response.
func fetchStats(client *http.Client, addr string) *wire.StatsResponse {
	var stats wire.StatsResponse
	if err := getData(client, addr+"/v1/stats", &stats); err != nil {
		fmt.Fprintf(os.Stderr, "whyload: reading /v1/stats: %v\n", err)
		return nil
	}
	return &stats
}
