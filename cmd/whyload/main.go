// Command whyload is the why-query load generator: it discovers a running
// whydbd's datasets and built-in queries, replays a mix of explain and match
// requests at a target concurrency, and reports throughput (RPS) and latency
// percentiles (p50/p95/p99) — the repo's end-to-end service numbers.
//
// Usage:
//
//	whyload -addr http://127.0.0.1:8080 -mix mixed -concurrency 8 -duration 10s
//	whyload -addr http://127.0.0.1:8091 -mix explain -requests 200 -out summary.json
//	whyload -addr http://127.0.0.1:8091 -mix stream -requests 200 -out stream.json
//	whyload -addr http://127.0.0.1:8092 -mix chaos -concurrency 16 -duration 60s
//
// The request corpus is derived from GET /v1/datasets: per dataset, every
// built-in query yields a why-empty explain (its failing variant), a
// bounded explain (why-so-many against a tight interval), a count match,
// and a find match. -mix selects explain ops, match ops, or both; "stream"
// replays the explain corpus through POST /v1/explain/stream (SSE) and
// additionally reports anytime latency — time to first explanation (ttfeMs:
// first `improvement` event) and time to converged (ttconvergedMs: the
// `done` event) — the numbers that justify the streaming transport; "chaos"
// replays the mixed corpus as an overload rehearsal — a saturating burst for
// 60% of the run, then a single-worker trickle that lets the daemon's
// brownout controller recover — and tolerates the daemon's documented
// overload answers (shedding, expiry, injected faults) while still failing
// on anything unexplained.
//
// Outcomes are classified by the v1 envelope's error code (shed, injected,
// deadline_*, ...), falling back to HTTP status for an answer without one
// (a proxy's bare 503). Overload answers and dead connections are retried:
// shed/draining/shard_unavailable (429/503) back off exponentially with
// jitter (honoring Retry-After) up to -retries attempts; exhausted retries
// are counted (shedExhausted / injectedExhausted / transport), not treated
// as unexplained failures. Degraded explains (`degraded: true`) are counted
// and must carry their quality bound; with -allow-partial, partial answers
// (`partial: true`) are counted and must carry their per-shard coverage map.
//
// whyload exits non-zero if any request failed hard (transport error,
// malformed JSON, unexplained non-2xx, or a degraded explain missing its
// bound), so a CI smoke run fails loudly; -allow-errors downgrades that to
// a report line.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/retry"
	"repro/internal/wire"
)

type job struct {
	kind string // "explain" | "match" | "stream"
	body []byte
}

// path maps the job kind to its endpoint (the stream kind is an explain
// body answered over SSE, the batch kind a BatchExplainRequest).
func (j job) path() string {
	switch j.kind {
	case "stream":
		return "/v1/explain/stream"
	case "batch":
		return "/v1/explain/batch"
	case "mutate":
		return "/v1/graph/mutate"
	}
	return "/v1/" + j.kind
}

// class is one request's final classification after retries.
type class int

const (
	clsOK class = iota
	// clsInjected is a fault-injected hard error (marked `injected` by the
	// daemon): explained, counted, not a service defect.
	clsInjected
	// clsExpired is a 504 — the request ran out of time queued or running.
	// Chaos runs treat expiry as an explained overload answer; other mixes
	// count it as an error.
	clsExpired
	// clsShedExhausted gave up after -retries 429s: the server kept
	// shedding, which is correct overload behavior.
	clsShedExhausted
	// clsInjectedExhausted gave up after -retries injected 503s.
	clsInjectedExhausted
	// clsTransport is a connection-level failure after retries: dial refused,
	// or the peer died mid-exchange (a 5xx status line whose body never
	// arrived, or arrived as a non-JSON half-answer). Chaos runs treat it as
	// an explained casualty of the drill — distinct from an unexplained 5xx
	// the daemon actually composed; other mixes count it as an error.
	clsTransport
	// clsError is a hard failure: malformed JSON, unexplained non-2xx, a
	// degraded explain without its bound, or a partial answer without its
	// coverage map.
	clsError
)

// sample is one job's outcome. ttfe and ttconverged are stream-only anytime
// latencies (zero when the stream produced no improvement / did not finish).
// items/itemErrors/itemOverload are batch-only: items the answered batch
// carried, items carrying a hard error envelope, and items carrying a
// documented overload answer (shed, deadline, injected, shard loss) — the
// latter tolerated in chaos runs, errors elsewhere.
type sample struct {
	kind            string
	lat             time.Duration
	class           class
	status          int
	retries         int
	degraded        bool
	missingBound    bool
	partial         bool
	missingCoverage bool
	ttfe            time.Duration
	ttconverged     time.Duration
	items           int
	itemErrors      int
	itemOverload    int
}

// kindStats aggregates one request kind's outcomes.
type kindStats struct {
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	P50Ms     float64 `json:"p50Ms"`
	P95Ms     float64 `json:"p95Ms"`
	P99Ms     float64 `json:"p99Ms"`
	MaxMs     float64 `json:"maxMs"`
	MeanMs    float64 `json:"meanMs"`
	latencies []time.Duration
}

// latQuantiles summarizes one anytime-latency distribution (stream mix).
type latQuantiles struct {
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
	Count int     `json:"count"`
}

func quantiles(lats []time.Duration) *latQuantiles {
	if len(lats) == 0 {
		return nil
	}
	q := &latQuantiles{Count: len(lats)}
	q.P50Ms, q.P95Ms, q.P99Ms, q.MaxMs = percentiles(lats)
	return q
}

// summary is the machine-readable run report (-out, uploaded as a CI
// artifact). Kernel carries the daemon's post-run search-kernel counters
// per dataset and explanation family, and Resilience the daemon's brownout
// state and overload counters, both read from GET /v1/stats.
type summary struct {
	Target      string               `json:"target"`
	Mix         string               `json:"mix"`
	Concurrency int                  `json:"concurrency"`
	Requests    int                  `json:"requests"`
	Errors      int                  `json:"errors"`
	DurationMs  float64              `json:"durationMs"`
	RPS         float64              `json:"rps"`
	P50Ms       float64              `json:"p50Ms"`
	P95Ms       float64              `json:"p95Ms"`
	P99Ms       float64              `json:"p99Ms"`
	MaxMs       float64              `json:"maxMs"`
	MeanMs      float64              `json:"meanMs"`
	PerKind     map[string]kindStats `json:"perKind"`

	// Overload and fault accounting (see the class comments).
	Retries                int `json:"retries"`
	Shed                   int `json:"shed"`
	ShedExhausted          int `json:"shedExhausted"`
	Injected               int `json:"injected"`
	InjectedExhausted      int `json:"injectedExhausted"`
	Expired                int `json:"expired"`
	Transport              int `json:"transport"`
	Degraded               int `json:"degraded"`
	DegradedMissingBound   int `json:"degradedMissingBound"`
	Partial                int `json:"partial"`
	PartialMissingCoverage int `json:"partialMissingCoverage"`
	Unexplained5xx         int `json:"unexplained5xx"`
	CorpusSkipped          int `json:"corpusSkipped"`

	// Anytime latency of the stream mix: time from request start to the
	// first improvement event (TTFE) and to the done event (converged).
	TTFEMs        *latQuantiles `json:"ttfeMs,omitempty"`
	TTConvergedMs *latQuantiles `json:"ttconvergedMs,omitempty"`

	// Batch accounting (batch jobs in the mix): batches sent, items carried,
	// item-level hard errors and tolerated overload answers, effective
	// item throughput, and per-item latency percentiles (each item observes
	// its enclosing batch's wall latency — the time a batched caller waits
	// for that answer).
	Batches           int           `json:"batches,omitempty"`
	BatchItems        int           `json:"batchItems,omitempty"`
	BatchItemErrors   int           `json:"batchItemErrors,omitempty"`
	BatchItemOverload int           `json:"batchItemOverload,omitempty"`
	ItemRPS           float64       `json:"itemRps,omitempty"`
	PerItemMs         *latQuantiles `json:"perItemMs,omitempty"`

	Kernel     map[string]map[string]wire.KernelCounters `json:"kernel,omitempty"`
	Resilience *wire.ResilienceStats                     `json:"resilience,omitempty"`
	// Speculation and Coalescing mirror the daemon's post-run fleet-serving
	// counters: the server-wide speculation budget's utilization and each
	// dataset's cross-request singleflight stampede counters.
	Speculation *wire.SpeculationPoolStats      `json:"speculation,omitempty"`
	Coalescing  map[string]wire.CoalescingStats `json:"coalescing,omitempty"`
	// Shards carries each sharded dataset's shard-group health from the
	// daemon's post-run stats: breaker states, retry/hedge counters, and how
	// many partial answers the coordinator served.
	Shards map[string]*wire.ShardingStats `json:"shards,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "whydbd base URL")
	mix := flag.String("mix", "mixed", "request mix: explain, match, mixed, stream, or chaos")
	concurrency := flag.Int("concurrency", 8, "concurrent request workers")
	requests := flag.Int("requests", 0, "total requests to send (0 = run for -duration)")
	duration := flag.Duration("duration", 10*time.Second, "run length when -requests is 0")
	budget := flag.Int("budget", 150, "explanation candidate budget per explain request")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	retries := flag.Int("retries", 3, "max retries per request on 429/503")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "initial retry backoff")
	retryMax := flag.Duration("retry-max", 2*time.Second, "retry backoff cap")
	seed := flag.Int64("seed", 1, "backoff-jitter seed")
	out := flag.String("out", "", "write the JSON summary to this file")
	allowErrors := flag.Bool("allow-errors", false, "exit 0 even when requests failed")
	allowPartial := flag.Bool("allow-partial", false, "set allowPartial on every request: a sharded daemon may answer from surviving shards")
	mutateFrac := flag.Float64("mutate-frac", 0, "fraction of the corpus that is graph mutations (mixed/chaos only; sharded datasets are skipped)")
	batchSize := flag.Int("batch-size", 8, "items per /v1/explain/batch request (batch and chaos mixes)")
	dupFrac := flag.Float64("dup-frac", 0.5, "fraction of each batch's items duplicating its first item (cross-request coalescing pressure)")
	flag.Parse()
	chaos := *mix == "chaos"
	switch *mix {
	case "explain", "match", "mixed", "stream", "batch", "chaos":
	default:
		fmt.Fprintf(os.Stderr, "unknown mix %q (want explain, match, mixed, stream, batch, or chaos)\n", *mix)
		os.Exit(2)
	}
	if *concurrency < 1 {
		*concurrency = 1
	}
	if *batchSize < 1 || *dupFrac < 0 || *dupFrac > 1 {
		fmt.Fprintln(os.Stderr, "whyload: -batch-size must be >= 1 and -dup-frac in [0, 1]")
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	corpusMix := *mix
	if chaos {
		corpusMix = "mixed"
	}
	if *mix == "batch" {
		corpusMix = "explain"
	}
	jobs, skipped, err := buildJobs(client, *addr, corpusMix, *budget, *allowPartial)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whyload: %v\n", err)
		os.Exit(1)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "whyload: the daemon serves no datasets")
		os.Exit(1)
	}
	if *mix == "batch" {
		jobs = batchJobs(jobs, *batchSize, *dupFrac)
	}
	if chaos {
		// The overload drill also carries fleet traffic: every fourth explain
		// replays over SSE, and duplicate-heavy batches ride along so batching
		// and coalescing face the same epoch swaps and brownouts as singles.
		nExplain := 0
		for i := range jobs {
			if jobs[i].kind == "explain" {
				if nExplain%4 == 3 {
					jobs[i].kind = "stream"
				}
				nExplain++
			}
		}
		bjs := batchJobs(jobs, *batchSize, *dupFrac)
		if max := len(jobs)/4 + 1; len(bjs) > max {
			bjs = bjs[:max]
		}
		jobs = interleave(jobs, bjs)
	}
	if *mutateFrac < 0 || *mutateFrac >= 1 {
		fmt.Fprintln(os.Stderr, "whyload: -mutate-frac must be in [0, 1)")
		os.Exit(2)
	}
	if *mutateFrac > 0 {
		if *mix != "mixed" && !chaos {
			fmt.Fprintln(os.Stderr, "whyload: -mutate-frac wants -mix mixed or chaos")
			os.Exit(2)
		}
		mj, err := mutateJobs(client, *addr, *mutateFrac, len(jobs))
		if err != nil {
			fmt.Fprintf(os.Stderr, "whyload: %v\n", err)
			os.Exit(1)
		}
		if len(mj) == 0 {
			fmt.Fprintln(os.Stderr, "whyload: -mutate-frac set but every dataset is sharded; no mutations sent")
		}
		jobs = interleave(jobs, mj)
	}

	perWorker := make([][]sample, *concurrency)
	var next, totalRetries atomic.Int64
	deadline := time.Now().Add(*duration)
	// Chaos: saturate for 60% of the run, then trickle from one worker so
	// the brownout controller's recovery is observable before the run ends.
	burstDeadline := time.Now().Add(*duration * 6 / 10)
	// The trickle is dense enough (150ms) that the controller's step-down
	// windows — shedding → degraded → healthy, each gated by its exit
	// hold — see several admission and completion samples.
	const trickleGap = 150 * time.Millisecond
	useCount := *requests > 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			policy := retry.New(*retries, *retryBase, *retryMax, *seed+int64(w))
			for {
				i := next.Add(1) - 1
				if useCount {
					if int(i) >= *requests {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				if chaos && time.Now().After(burstDeadline) {
					if w != 0 {
						return
					}
					time.Sleep(trickleGap)
				}
				j := jobs[int(i)%len(jobs)]
				perWorker[w] = append(perWorker[w], doJob(client, *addr, j, policy, &totalRetries))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := summary{
		Target:        *addr,
		Mix:           *mix,
		Concurrency:   *concurrency,
		DurationMs:    float64(elapsed.Nanoseconds()) / 1e6,
		PerKind:       map[string]kindStats{},
		CorpusSkipped: skipped,
		Retries:       int(totalRetries.Load()),
	}
	var all, ttfes, ttconvs, perItem []time.Duration
	var mean time.Duration
	for _, ws := range perWorker {
		for _, s := range ws {
			sum.Requests++
			ks := sum.PerKind[s.kind]
			ks.Requests++
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
			if s.degraded {
				sum.Degraded++
			}
			if s.missingBound {
				sum.DegradedMissingBound++
			}
			if s.partial {
				sum.Partial++
			}
			if s.missingCoverage {
				sum.PartialMissingCoverage++
			}
			wasTransport := s.class == clsTransport
			if wasTransport {
				sum.Transport++
			}
			s.class = normalize(s.class, chaos)
			switch s.class {
			case clsInjected:
				sum.Injected++
			case clsExpired:
				sum.Expired++
			case clsShedExhausted:
				sum.Shed += s.retries
				sum.ShedExhausted++
			case clsInjectedExhausted:
				sum.InjectedExhausted++
			}
			if s.class == clsError {
				sum.Errors++
				ks.Errors++
				// A transport casualty never had a daemon-composed body to
				// explain itself with — it is not an unexplained 5xx.
				if !wasTransport && s.status >= 500 && s.status != http.StatusGatewayTimeout {
					sum.Unexplained5xx++
				}
			} else {
				all = append(all, s.lat)
				mean += s.lat
				ks.latencies = append(ks.latencies, s.lat)
				if s.ttfe > 0 {
					ttfes = append(ttfes, s.ttfe)
				}
				if s.ttconverged > 0 {
					ttconvs = append(ttconvs, s.ttconverged)
				}
			}
			sum.PerKind[s.kind] = ks
		}
	}
	sum.TTFEMs, sum.TTConvergedMs = quantiles(ttfes), quantiles(ttconvs)
	sum.PerItemMs = quantiles(perItem)
	sum.RPS = float64(sum.Requests) / elapsed.Seconds()
	if sum.BatchItems > 0 {
		sum.ItemRPS = float64(sum.BatchItems) / elapsed.Seconds()
	}
	sum.P50Ms, sum.P95Ms, sum.P99Ms, sum.MaxMs = percentiles(all)
	if len(all) > 0 {
		sum.MeanMs = float64(mean.Nanoseconds()) / 1e6 / float64(len(all))
	}
	for kind, ks := range sum.PerKind {
		var km time.Duration
		for _, l := range ks.latencies {
			km += l
		}
		ks.P50Ms, ks.P95Ms, ks.P99Ms, ks.MaxMs = percentiles(ks.latencies)
		if n := len(ks.latencies); n > 0 {
			ks.MeanMs = float64(km.Nanoseconds()) / 1e6 / float64(n)
		}
		ks.latencies = nil
		sum.PerKind[kind] = ks
	}

	if stats := fetchStats(client, *addr); stats != nil {
		sum.Kernel = make(map[string]map[string]wire.KernelCounters, len(stats.Datasets))
		for name, ds := range stats.Datasets {
			sum.Kernel[name] = ds.Kernel
			if ds.Sharding != nil {
				if sum.Shards == nil {
					sum.Shards = map[string]*wire.ShardingStats{}
				}
				sum.Shards[name] = ds.Sharding
			}
			if ds.Coalescing.Waits > 0 || ds.Coalescing.Shared > 0 {
				if sum.Coalescing == nil {
					sum.Coalescing = map[string]wire.CoalescingStats{}
				}
				sum.Coalescing[name] = ds.Coalescing
			}
		}
		sum.Resilience = stats.Resilience
		sum.Speculation = stats.Speculation
	}

	fmt.Printf("whyload: %s mix against %s, %d workers\n", sum.Mix, sum.Target, sum.Concurrency)
	fmt.Printf("  %d requests in %.2fs → %.1f req/s, %d errors\n", sum.Requests, elapsed.Seconds(), sum.RPS, sum.Errors)
	fmt.Printf("  latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f mean=%.2f\n", sum.P50Ms, sum.P95Ms, sum.P99Ms, sum.MaxMs, sum.MeanMs)
	for _, kind := range slices.Sorted(maps.Keys(sum.PerKind)) {
		ks := sum.PerKind[kind]
		fmt.Printf("  %-8s %5d requests, %d errors, p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			kind, ks.Requests, ks.Errors, ks.P50Ms, ks.P95Ms, ks.P99Ms, ks.MaxMs)
	}
	if q := sum.TTFEMs; q != nil {
		fmt.Printf("  anytime ms: ttfe p50=%.2f p99=%.2f max=%.2f (%d streams)", q.P50Ms, q.P99Ms, q.MaxMs, q.Count)
		if c := sum.TTConvergedMs; c != nil {
			fmt.Printf(", converged p50=%.2f p99=%.2f", c.P50Ms, c.P99Ms)
		}
		fmt.Println()
	}
	if sum.Batches > 0 {
		fmt.Printf("  batch: %d batches carrying %d items (%d item errors, %d item overload), %.1f items/s",
			sum.Batches, sum.BatchItems, sum.BatchItemErrors, sum.BatchItemOverload, sum.ItemRPS)
		if q := sum.PerItemMs; q != nil {
			fmt.Printf(", per-item p50=%.2f p99=%.2f max=%.2f", q.P50Ms, q.P99Ms, q.MaxMs)
		}
		fmt.Println()
	}
	if sum.Retries+sum.Degraded+sum.Injected+sum.Expired+sum.Transport+sum.Partial+sum.ShedExhausted+sum.InjectedExhausted+sum.CorpusSkipped > 0 {
		fmt.Printf("  overload: %d retries, %d degraded (%d missing bound), %d partial (%d missing coverage), %d injected (%d exhausted), %d expired, %d shed-exhausted, %d transport, %d corpus-skipped\n",
			sum.Retries, sum.Degraded, sum.DegradedMissingBound, sum.Partial, sum.PartialMissingCoverage, sum.Injected, sum.InjectedExhausted, sum.Expired, sum.ShedExhausted, sum.Transport, sum.CorpusSkipped)
	}
	if rs := sum.Resilience; rs != nil {
		fmt.Printf("  resilience: state=%s shed=%d queueFull=%d expired=%d/%d degradedServed=%d panics=%d transitions=%v\n",
			rs.State, rs.Shed, rs.QueueFull, rs.ExpiredQueued, rs.ExpiredRunning, rs.DegradedServed, rs.Panics, rs.Transitions)
	}
	if sp := sum.Speculation; sp != nil {
		fmt.Printf("  speculation: pool=%d/%d granted=%d denied=%d returned=%d\n",
			sp.Size, sp.Capacity, sp.Granted, sp.Denied, sp.Returned)
	}
	for _, ds := range slices.Sorted(maps.Keys(sum.Coalescing)) {
		c := sum.Coalescing[ds]
		fmt.Printf("  coalesce %-7s waits=%d shared=%d\n", ds, c.Waits, c.Shared)
	}
	for _, ds := range slices.Sorted(maps.Keys(sum.Kernel)) {
		families := sum.Kernel[ds]
		line := fmt.Sprintf("  kernel %-7s", ds)
		for _, fam := range []string{"relax", "modtree", "mcs"} {
			c := families[fam]
			line += fmt.Sprintf(" %s %dx/%dh/%dw", fam, c.Executions, c.DedupHits, c.SpecWaste)
		}
		fmt.Println(line)
	}
	for _, ds := range slices.Sorted(maps.Keys(sum.Shards)) {
		sh := sum.Shards[ds]
		fmt.Printf("  shards %-7s mode=%s n=%d partialServed=%d\n", ds, sh.Mode, sh.NumShards, sh.PartialServed)
		for _, st := range sh.Shards {
			fmt.Printf("    %-10s [%d,%d) breaker=%s consec=%d req=%d fail=%d retries=%d hedges=%d won=%d opened=%d closed=%d\n",
				st.Name, st.Lo, st.Hi, st.Breaker, st.ConsecFailures, st.Requests, st.Failures, st.Retries,
				st.HedgesLaunched, st.HedgesWon, st.BreakerOpened, st.BreakerClosed)
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "whyload: writing summary: %v\n", err)
			os.Exit(1)
		}
	}
	if (sum.Errors > 0 || sum.BatchItemErrors > 0 || sum.DegradedMissingBound > 0 || sum.PartialMissingCoverage > 0) && !*allowErrors {
		os.Exit(1)
	}
}

// batchJobs wraps the corpus' explain bodies into /v1/explain/batch jobs.
// Each batch anchors on one distinct spec: ceil(dupFrac·size) items repeat
// the anchor (the coalescing pressure a duplicate-heavy fleet workload
// exerts), and the rest walk the remaining specs round-robin, so every
// batch still carries distinct work. Bodies are spliced as raw JSON — the
// specs were marshaled once when the corpus was built.
func batchJobs(corpus []job, size int, dupFrac float64) []job {
	var specs []json.RawMessage
	for _, j := range corpus {
		if j.kind == "explain" {
			specs = append(specs, json.RawMessage(j.body))
		}
	}
	if len(specs) == 0 {
		return nil
	}
	dups := int(math.Ceil(dupFrac * float64(size)))
	if dups > size {
		dups = size
	}
	next := 0
	out := make([]job, 0, len(specs))
	for a := range specs {
		items := make([]json.RawMessage, 0, size)
		for d := 0; d < dups && len(items) < size; d++ {
			items = append(items, specs[a])
		}
		for len(items) < size {
			items = append(items, specs[next%len(specs)])
			next++
		}
		body, err := json.Marshal(struct {
			Items []json.RawMessage `json:"items"`
		}{items})
		if err != nil {
			continue
		}
		out = append(out, job{kind: "batch", body: body})
	}
	return out
}

// normalize maps overload classes to hard errors outside chaos runs: a
// plain smoke run has no business expiring, exhausting retries, or losing
// connections, so those outcomes must fail it; a chaos run expects them.
func normalize(c class, chaos bool) class {
	if chaos {
		return c
	}
	switch c {
	case clsExpired, clsShedExhausted, clsInjectedExhausted, clsTransport:
		return clsError
	default:
		return c
	}
}

// result is one HTTP attempt's parsed outcome. code is the envelope's
// structured error code when the server sent one; empty for a code-less
// answer (a proxy's), where the classifier falls back to the HTTP status.
type result struct {
	status          int
	code            wire.ErrorCode
	transport       bool // connection-level failure; status kept when the line arrived
	badJSON         bool
	injected        bool
	streamDead      bool // SSE error event or truncated stream: don't retry
	degraded        bool
	missingBound    bool
	partial         bool
	missingCoverage bool
	retryAfter      time.Duration
	ttfe            time.Duration
	ttconverged     time.Duration
	items           int // batch answers: items carried
	itemErrors      int // items with a hard error envelope
	itemOverload    int // items with a documented overload answer
}

// retriable reports whether this attempt is a documented overload answer the
// policy should back off and retry: by code shed/draining (and injected
// faults surfacing as 503), by status 429/503 for a code-less answer.
func (res result) retriable() bool {
	if res.streamDead {
		return false
	}
	switch res.code {
	case wire.CodeShed, wire.CodeDraining, wire.CodeShardUnavailable:
		return true
	case wire.CodeInjected:
		return res.status == http.StatusServiceUnavailable
	case "":
		return res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable
	}
	return false
}

// expired reports a request that ran out of time queued or running.
func (res result) expired() bool {
	switch res.code {
	case wire.CodeDeadlineQueued, wire.CodeDeadlineRunning:
		return true
	case "":
		return res.status == http.StatusGatewayTimeout
	}
	return false
}

// doJob runs one job to completion, retrying overload answers and dead
// connections under the policy. The sample's latency spans all attempts —
// the client-observed time to an answer.
func doJob(client *http.Client, addr string, j job, policy *retry.Policy, retries *atomic.Int64) sample {
	t0 := time.Now()
	s := sample{kind: j.kind}
	for attempt := 0; ; attempt++ {
		var res result
		if j.kind == "stream" {
			res = sendStream(client, addr+j.path(), j.body)
		} else {
			res = send(client, addr+j.path(), j.body, j.kind == "batch")
		}
		s.lat = time.Since(t0)
		s.status = res.status
		s.degraded = s.degraded || res.degraded
		s.missingBound = s.missingBound || res.missingBound
		s.partial = s.partial || res.partial
		s.missingCoverage = s.missingCoverage || res.missingCoverage
		switch {
		case res.badJSON:
			s.class = clsError
			return s
		case res.transport:
			// The connection died — possibly a daemon cycling mid-burst —
			// so it earns the same retry ladder as an overload answer.
			if attempt >= policy.Max {
				s.class = clsTransport
				s.retries = attempt
				return s
			}
			retries.Add(1)
			policy.Sleep(attempt, res.retryAfter)
		case res.status >= 200 && res.status < 300 && !res.streamDead:
			s.class = clsOK
			s.ttfe, s.ttconverged = res.ttfe, res.ttconverged
			s.items, s.itemErrors, s.itemOverload = res.items, res.itemErrors, res.itemOverload
			if res.missingBound || res.missingCoverage {
				// A degraded explain without its quality bound, or a partial
				// answer without its coverage map, is a contract violation,
				// not an overload answer.
				s.class = clsError
			}
			return s
		case res.retriable():
			if attempt >= policy.Max {
				if res.injected {
					s.class = clsInjectedExhausted
				} else {
					s.class = clsShedExhausted
				}
				s.retries = attempt
				return s
			}
			retries.Add(1)
			policy.Sleep(attempt, res.retryAfter)
		case res.expired():
			s.class = clsExpired
			return s
		case res.injected:
			s.class = clsInjected
			return s
		default:
			s.class = clsError
			return s
		}
	}
}

// parseError extracts the classifier's fields from a non-2xx (or SSE error
// event) body: the v1 envelope's structured error. A body without one (a
// proxy's bare 503) leaves the code empty and is classified by HTTP status.
func (res *result) parseError(blob []byte) {
	var env wire.Envelope
	if json.Unmarshal(blob, &env) == nil && env.Error != nil {
		res.code = env.Error.Code
		res.injected = env.Error.Injected
		if res.retryAfter == 0 && env.Error.RetryAfterMs > 0 {
			res.retryAfter = time.Duration(env.Error.RetryAfterMs) * time.Millisecond
		}
	}
}

// parseReport checks a 2xx explain/match body for degradation and partial
// markers. The body may be enveloped ({data: {...}}) or bare (the stream's
// done event) — decodeBody handles both; a body without the fields simply
// decodes with them absent.
func (res *result) parseReport(blob []byte) {
	var rep struct {
		Degraded     bool               `json:"degraded"`
		QualityBound *wire.QualityBound `json:"qualityBound"`
		Partial      bool               `json:"partial"`
		Coverage     map[string]bool    `json:"coverage"` // match answers carry it top-level
	}
	if decodeBody(blob, &rep) != nil {
		return
	}
	if rep.Degraded {
		res.degraded = true
		res.missingBound = rep.QualityBound == nil
	}
	if rep.Partial {
		res.partial = true
		covered := len(rep.Coverage) > 0 ||
			(rep.QualityBound != nil && len(rep.QualityBound.Coverage) > 0)
		res.missingCoverage = !covered
	}
}

// send posts one request and parses the pieces the classifier needs. batch
// answers carry per-item envelopes and are unpacked by parseBatch instead
// of the single-report markers.
func send(client *http.Client, url string, body []byte, batch bool) result {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return result{transport: true}
	}
	defer resp.Body.Close()
	res := result{status: resp.StatusCode}
	res.readRetryAfter(resp)
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		// The connection died mid-read: a transport casualty whatever the
		// status line promised, not an unexplained server answer.
		res.transport = true
		return res
	}
	if !json.Valid(blob) {
		if res.status >= 500 {
			// A 5xx with a non-JSON body is a dying peer's half-answer
			// (truncated envelope, proxy text) — transport, not a JSON bug.
			res.transport = true
		} else {
			res.badJSON = true
		}
		return res
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if batch {
			res.parseBatch(blob)
		} else {
			res.parseReport(blob)
		}
		return res
	}
	res.parseError(blob)
	return res
}

// parseBatch unpacks a 2xx /v1/explain/batch body: every item envelope is
// classified independently — data items run the single-answer contract
// checks (degraded bound, partial coverage), error items split into
// documented overload answers and hard failures.
func (res *result) parseBatch(blob []byte) {
	var batch wire.BatchExplainResponse
	if decodeBody(blob, &batch) != nil {
		res.badJSON = true
		return
	}
	res.items = len(batch.Items)
	for _, item := range batch.Items {
		switch {
		case item.Error != nil:
			switch item.Error.Code {
			case wire.CodeShed, wire.CodeDraining, wire.CodeDeadlineQueued,
				wire.CodeDeadlineRunning, wire.CodeShardUnavailable, wire.CodeInjected:
				res.itemOverload++
			default:
				res.itemErrors++
			}
		case len(item.Data) > 0:
			var sub result
			sub.parseReport(item.Data)
			res.degraded = res.degraded || sub.degraded
			res.missingBound = res.missingBound || sub.missingBound
			res.partial = res.partial || sub.partial
			res.missingCoverage = res.missingCoverage || sub.missingCoverage
		default:
			res.itemErrors++
		}
	}
}

func (res *result) readRetryAfter(resp *http.Response) {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			res.retryAfter = time.Duration(secs) * time.Second
		}
	}
}

// sendStream posts one explain to /v1/explain/stream and consumes the SSE
// stream, recording the anytime latencies: ttfe at the first `improvement`
// event, ttconverged at the `done` event. A pre-stream refusal (shedding,
// bad spec, queued-out deadline) answers plain JSON and is classified like
// any explain attempt; a mid-stream `error` event carries the envelope's
// error shape and is terminal — the stream already consumed the budget, so
// it is never retried.
func sendStream(client *http.Client, url string, body []byte) result {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return result{transport: true}
	}
	defer resp.Body.Close()
	res := result{status: resp.StatusCode}
	res.readRetryAfter(resp)
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// Refused before the stream opened: a plain JSON answer.
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			res.transport = true
			return res
		}
		if !json.Valid(blob) {
			if res.status >= 500 {
				res.transport = true
			} else {
				res.badJSON = true
			}
			return res
		}
		if res.status >= 200 && res.status < 300 {
			res.parseReport(blob)
		} else {
			res.parseError(blob)
		}
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	event := ""
	done := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "improvement":
				if res.ttfe == 0 {
					res.ttfe = time.Since(t0)
				}
				if !json.Valid(data) {
					res.badJSON = true
				}
			case "done":
				res.ttconverged = time.Since(t0)
				done = true
				res.parseReport(data)
			case "error":
				res.streamDead = true
				res.parseError(data)
			}
		}
	}
	if sc.Err() != nil {
		return result{transport: true}
	}
	if !done && !res.streamDead {
		// The stream ended without a done or error event: truncated.
		res.transport = true
	}
	return res
}

// decodeBody unwraps a v1 envelope's data field into v, falling back to
// decoding the body as the bare payload (the stream's done event).
func decodeBody(blob []byte, v any) error {
	var env wire.Envelope
	if json.Unmarshal(blob, &env) == nil && len(env.Data) > 0 {
		return json.Unmarshal(env.Data, v)
	}
	return json.Unmarshal(blob, v)
}

// fetchStats reads the daemon's post-run stats. A stats failure never fails
// the load run — the counters are observability, not the workload — so it
// degrades to a warning and a nil response.
func fetchStats(client *http.Client, addr string) *wire.StatsResponse {
	resp, err := client.Get(addr + "/v1/stats")
	if err != nil {
		fmt.Fprintf(os.Stderr, "whyload: reading /v1/stats: %v\n", err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "whyload: reading /v1/stats: %s\n", resp.Status)
		return nil
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whyload: reading /v1/stats: %v\n", err)
		return nil
	}
	var stats wire.StatsResponse
	if err := decodeBody(blob, &stats); err != nil {
		fmt.Fprintf(os.Stderr, "whyload: decoding /v1/stats: %v\n", err)
		return nil
	}
	return &stats
}

// buildJobs derives the request corpus from the daemon's dataset listing.
// A request that fails to marshal is counted and skipped, never fatal: one
// bad record must not kill a load run.
func buildJobs(client *http.Client, addr, mix string, budget int, allowPartial bool) ([]job, int, error) {
	resp, err := client.Get(addr + "/v1/datasets")
	if err != nil {
		return nil, 0, fmt.Errorf("discovering datasets: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("discovering datasets: %s", resp.Status)
	}
	listing, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("reading dataset listing: %w", err)
	}
	var infos []wire.DatasetInfo
	if err := decodeBody(listing, &infos); err != nil {
		return nil, 0, fmt.Errorf("decoding dataset listing: %w", err)
	}
	var jobs []job
	skipped := 0
	add := func(kind string, body any) {
		blob, err := json.Marshal(body)
		if err != nil {
			skipped++
			fmt.Fprintf(os.Stderr, "whyload: skipping unmarshalable %s request: %v\n", kind, err)
			return
		}
		jobs = append(jobs, job{kind: kind, body: blob})
	}
	// The stream mix replays the explain corpus over SSE.
	explainKind := "explain"
	if mix == "stream" {
		explainKind = "stream"
	}
	for _, info := range infos {
		for _, builtin := range info.Builtins {
			if mix != "match" {
				add(explainKind, wire.ExplainRequest{
					Dataset: info.Name, Builtin: builtin, Failing: true, Lower: 1, Budget: budget,
					AllowPartial: allowPartial,
				})
				add(explainKind, wire.ExplainRequest{
					Dataset: info.Name, Builtin: builtin, Lower: 1, Upper: 3, Budget: budget,
					AllowPartial: allowPartial,
				})
			}
			if mix == "match" || mix == "mixed" {
				add("match", wire.MatchRequest{
					Dataset: info.Name, Builtin: builtin, AllowPartial: allowPartial,
				})
				add("match", wire.MatchRequest{
					Dataset: info.Name, Builtin: builtin, Mode: "find", Limit: 10, AllowPartial: allowPartial,
				})
			}
		}
	}
	return jobs, skipped, nil
}

// mutateJobs builds write jobs for -mutate-frac: each is a self-contained
// batch — two fresh "loadtest" vertices joined by a "loadtest" edge via
// batch-local references — so it always names live elements no matter how
// many mutations ran before it, and its types match no built-in query, so
// the read corpus' answers stay comparable while every write still forces a
// full refreeze. Sharded datasets reject mutation, so they are skipped
// (discovered from /v1/stats). The job count makes mutations ≈ frac of the
// final corpus: n = frac·len(jobs)/(1−frac), at least one per dataset.
func mutateJobs(client *http.Client, addr string, frac float64, corpus int) ([]job, error) {
	stats := fetchStats(client, addr)
	if stats == nil {
		return nil, fmt.Errorf("discovering mutable datasets: /v1/stats unavailable")
	}
	var names []string
	for name, ds := range stats.Datasets {
		if ds.Sharding == nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	n := int(math.Ceil(frac * float64(corpus) / (1 - frac)))
	if n < len(names) {
		n = len(names)
	}
	attrs := func(tag string) map[string]wire.Value {
		return map[string]wire.Value{
			"type": {Kind: "string", Str: "loadtest"},
			"tag":  {Kind: "string", Str: tag},
		}
	}
	jobs := make([]job, 0, n)
	for i := 0; i < n; i++ {
		body, err := json.Marshal(wire.MutateRequest{
			Dataset: names[i%len(names)],
			AddVertices: []wire.MutVertex{
				{Attrs: attrs("whyload-a")},
				{Attrs: attrs("whyload-b")},
			},
			AddEdges: []wire.MutEdge{{From: -1, To: -2, Type: "loadtest"}},
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{kind: "mutate", body: body})
	}
	return jobs, nil
}

// interleave spreads the write jobs evenly through the read corpus so
// refreezes land throughout the run instead of clustering at the end.
func interleave(reads, writes []job) []job {
	if len(writes) == 0 {
		return reads
	}
	out := make([]job, 0, len(reads)+len(writes))
	stride := len(reads)/len(writes) + 1
	w := 0
	for i, j := range reads {
		out = append(out, j)
		if (i+1)%stride == 0 && w < len(writes) {
			out = append(out, writes[w])
			w++
		}
	}
	out = append(out, writes[w:]...)
	return out
}

// percentiles returns p50/p95/p99/max in milliseconds.
func percentiles(lats []time.Duration) (p50, p95, p99, max float64) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		return float64(sorted[idx].Nanoseconds()) / 1e6
	}
	return at(0.50), at(0.95), at(0.99), float64(sorted[len(sorted)-1].Nanoseconds()) / 1e6
}
