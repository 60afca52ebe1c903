// Command whyload drives a running whydbd and classifies every outcome: it
// discovers the daemon's datasets and built-in queries, replays a request mix
// at a target concurrency, and says what came back — served, retried, shed,
// expired, injected, degraded, or plain wrong. The CI e2e and chaos jobs
// assert on its summary. The latencies it prints describe the run; speed
// baselines and verdicts live in bench/ (whybench).
//
// Usage:
//
//	whyload -addr http://127.0.0.1:8080 -mix mixed -concurrency 8 -duration 10s
//	whyload -addr http://127.0.0.1:8091 -mix stream -requests 200 -out stream.json
//	whyload -addr http://127.0.0.1:8091 -mix batch -requests 120 -batch-size 8 -dup-frac 0.5
//	whyload -addr http://127.0.0.1:8092 -mix chaos -concurrency 16 -duration 60s
//
// The request corpus is derived from GET /v1/datasets: per dataset, every
// built-in query yields a why-empty explain (its failing variant), a bounded
// explain (why-so-many against a tight interval), a count match and a find
// match. -mix selects explain ops, match ops, or both (mixed). "stream" sends
// the explain corpus to POST /v1/explain/stream (SSE) and adds the anytime
// latencies: time to the first `improvement` event (ttfeMs) and to the `done`
// event (ttconvergedMs). "batch" wraps it into duplicate-heavy
// POST /v1/explain/batch requests and adds per-item throughput. "chaos"
// replays the mixed corpus as an overload rehearsal — a saturating burst for
// 60% of the run, then a single-worker trickle that lets the daemon's
// brownout controller recover — and tolerates the daemon's documented
// overload answers while still failing on anything unexplained.
//
// Outcomes are classified by the v1 envelope's error code, falling back to
// the HTTP status for an answer without one (a proxy's bare 503). Overload
// answers (shed, draining: 429/503) and dead connections are retried
// maxRetries times with jittered exponential backoff, honoring Retry-After;
// a request that exhausts them is counted under its own name, not as an
// unexplained failure. A degraded explain must carry its quality bound.
//
// The summary (-out) ends with the daemon's post-run GET /v1/stats under
// `stats`. whyload exits non-zero if any request failed hard (transport error,
// malformed JSON, unexplained non-2xx, a failed batch item, a degraded
// answer missing its bound), so a CI run fails loudly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"
)

// What every run sends and how it retries: constants, because no caller of
// whyload needs a second value of any of them.
const (
	explainBudget  = 150              // candidate budget of every explain request
	requestTimeout = 30 * time.Second // per-request client timeout
	maxRetries     = 3                // per request, at retry.New's default 100ms–2s backoff
	jitterSeed     = 1                // worker w jitters its backoff from jitterSeed+w
)

type config struct {
	addr, mix, out                   string
	concurrency, requests, batchSize int
	duration                         time.Duration
	mutateFrac, dupFrac              float64
}

// defineFlags declares the whole flag surface on fs (TestFlagSurface holds it
// to a golden list, and to what CI, the README and the verify skill pass).
func defineFlags(fs *flag.FlagSet) *config {
	c := new(config)
	fs.StringVar(&c.addr, "addr", "http://127.0.0.1:8080", "whydbd base URL")
	fs.StringVar(&c.mix, "mix", "mixed", "request mix: explain, match, mixed, stream, batch, or chaos")
	fs.IntVar(&c.concurrency, "concurrency", 8, "concurrent request workers")
	fs.IntVar(&c.requests, "requests", 0, "total requests to send (0 = run for -duration)")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "run length when -requests is 0")
	fs.StringVar(&c.out, "out", "", "write the JSON summary to this file")
	fs.Float64Var(&c.mutateFrac, "mutate-frac", 0, "fraction of the corpus that is graph mutations (mixed/chaos only)")
	fs.IntVar(&c.batchSize, "batch-size", 8, "items per /v1/explain/batch request (batch and chaos mixes)")
	fs.Float64Var(&c.dupFrac, "dup-frac", 0.5, "fraction of each batch's items duplicating its first item (cross-request coalescing pressure)")
	return c
}

func (c *config) validate() error {
	switch c.mix {
	case "explain", "match", "mixed", "stream", "batch", "chaos":
	default:
		return fmt.Errorf("unknown mix %q (want explain, match, mixed, stream, batch, or chaos)", c.mix)
	}
	if c.batchSize < 1 || c.dupFrac < 0 || c.dupFrac > 1 {
		return errors.New("-batch-size must be >= 1 and -dup-frac in [0, 1]")
	}
	if c.mutateFrac < 0 || c.mutateFrac >= 1 {
		return errors.New("-mutate-frac must be in [0, 1)")
	}
	if c.mutateFrac > 0 && c.mix != "mixed" && c.mix != "chaos" {
		return errors.New("-mutate-frac wants -mix mixed or chaos")
	}
	c.concurrency = max(c.concurrency, 1)
	return nil
}

func main() {
	cfg := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "whyload: %v\n", err)
		os.Exit(2)
	}
	client := &http.Client{Timeout: requestTimeout}
	jobs, skipped, err := buildCorpus(client, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "whyload: %v\n", err)
		os.Exit(1)
	}
	samples, elapsed := run(client, cfg, jobs)

	sum := summarize(samples, cfg.mix == "chaos", elapsed)
	sum.Target, sum.Mix, sum.Concurrency, sum.CorpusSkipped = cfg.addr, cfg.mix, cfg.concurrency, skipped
	sum.Stats = fetchStats(client, cfg.addr)
	sum.print(os.Stdout)
	if cfg.out != "" {
		if err := sum.write(cfg.out); err != nil {
			fmt.Fprintf(os.Stderr, "whyload: writing summary: %v\n", err)
			os.Exit(1)
		}
	}
	if sum.failed() {
		os.Exit(1)
	}
}
