package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/retry"
	"repro/internal/wire"
)

// class is one request's final classification after retries.
type class int

const (
	clsOK class = iota
	// clsInjected is a fault-injected hard error (marked `injected` by the
	// daemon): explained, counted, not a service defect.
	clsInjected
	// clsExpired is a 504 — the request ran out of time queued or running.
	clsExpired
	// clsShedExhausted gave up after maxRetries 429s: the server's
	// admission queue stayed full, which is correct overload behavior.
	clsShedExhausted
	// clsInjectedExhausted gave up after maxRetries injected 503s.
	clsInjectedExhausted
	// clsTransport is a connection-level failure after retries: dial refused,
	// or the peer died mid-exchange (a 5xx status line whose body never
	// arrived, or arrived as a non-JSON half-answer) — a casualty of the
	// drill, distinct from an unexplained 5xx the daemon actually composed.
	clsTransport
	// clsError is a hard failure: malformed JSON, unexplained non-2xx, or a
	// degraded explain without its bound — and, outside a chaos run, any of
	// the four classes before it (see normalize).
	clsError
)

// sample is one job's outcome: how it was classified after retries (its
// attempts beyond the first), the client-observed latency across all of
// them, and the final attempt's parsed answer.
type sample struct {
	kind    string
	lat     time.Duration
	class   class
	retries int
	result
}

// The chaos trickle is dense enough that the controller's step-down window
// — degraded → healthy, gated by its exit hold — sees several admission and
// completion samples.
const trickleGap = 150 * time.Millisecond

// run replays jobs round-robin from cfg.concurrency workers until
// cfg.requests were claimed (or, when that is 0, cfg.duration elapsed) and
// returns every sample with the wall time of the whole run. The chaos mix
// saturates for 60% of the duration, then trickles from one worker so the
// brownout controller's recovery is observable before the run ends.
func run(client *http.Client, cfg *config, jobs []job) ([]sample, time.Duration) {
	chaos := cfg.mix == "chaos"
	perWorker := make([][]sample, cfg.concurrency)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(cfg.duration)
	burstDeadline := start.Add(cfg.duration * 6 / 10)
	var wg sync.WaitGroup
	for w := range perWorker {
		wg.Add(1)
		go func() {
			defer wg.Done()
			policy := retry.New(maxRetries, 0, 0, jitterSeed+int64(w))
			for {
				i := int(next.Add(1) - 1)
				if cfg.requests > 0 {
					if i >= cfg.requests {
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
				perWorker[w] = append(perWorker[w], doJob(client, cfg.addr, jobs[i%len(jobs)], policy))
			}
		}()
	}
	wg.Wait()
	return slices.Concat(perWorker...), time.Since(start)
}

// result is one HTTP attempt's parsed outcome. code is the envelope's
// structured error code when the server sent one; empty for a code-less
// answer (a proxy's), where the classifier falls back to the HTTP status.
// ttfe and ttconverged are the anytime latencies of a stream (zero when it
// produced no improvement / did not finish). items, itemErrors and
// itemOverload are a batch answer's: items carried, items with a hard error
// envelope, and items with a documented overload answer (shed, deadline,
// injected) — the latter tolerated in chaos runs, errors elsewhere.
type result struct {
	status       int
	code         wire.ErrorCode
	transport    bool // connection-level failure; status kept when the line arrived
	badJSON      bool
	injected     bool
	streamDead   bool // SSE error event or truncated stream: don't retry
	degraded     bool
	missingBound bool
	retryAfter   time.Duration
	ttfe         time.Duration
	ttconverged  time.Duration
	items        int
	itemErrors   int
	itemOverload int
}

// retriable reports whether this attempt is a documented overload answer the
// policy should back off and retry: by code shed/draining (and injected
// faults surfacing as 503), by status 429/503 for a code-less answer.
func (res result) retriable() bool {
	if res.streamDead {
		return false
	}
	switch res.code {
	case wire.CodeShed, wire.CodeDraining:
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

// classify maps one attempt to the job's class. final is false when the
// attempt earns another: an overload answer, or a dead connection (possibly
// a daemon cycling mid-burst), with retries left.
func (res result) classify(exhausted bool) (c class, final bool) {
	switch {
	case res.badJSON:
		return clsError, true
	case res.transport:
		return clsTransport, exhausted
	case res.status >= 200 && res.status < 300 && !res.streamDead:
		if res.missingBound {
			// A degraded explain without its quality bound is a contract
			// violation, not an overload answer.
			return clsError, true
		}
		return clsOK, true
	case res.retriable() && res.injected:
		return clsInjectedExhausted, exhausted
	case res.retriable():
		return clsShedExhausted, exhausted
	case res.expired():
		return clsExpired, true
	case res.injected:
		return clsInjected, true
	}
	return clsError, true
}

// doJob runs one job to completion, retrying under the policy. The sample's
// latency spans all attempts — the client-observed time to an answer.
func doJob(client *http.Client, addr string, j job, policy *retry.Policy) sample {
	t0 := time.Now()
	s := sample{kind: j.kind}
	for ; ; s.retries++ {
		res := send(client, addr+endpoints[j.kind], j.body, j.kind == "batch")
		s.lat, s.result = time.Since(t0), res
		if cls, final := res.classify(s.retries >= policy.Max); final {
			s.class = cls
			return s
		}
		policy.Sleep(s.retries, res.retryAfter)
	}
}

// send posts one request and parses the pieces the classifier needs: an SSE
// answer (an explain stream that opened) by readStream, anything else — a
// batch's per-item envelopes when batch is set — by readAnswer.
func send(client *http.Client, url string, body []byte, batch bool) result {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return result{transport: true}
	}
	defer resp.Body.Close()
	res := result{status: resp.StatusCode}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		res.readStream(resp.Body, t0)
	} else {
		res.readAnswer(resp, batch)
	}
	return res
}

// readAnswer reads a plain JSON answer — every non-stream response, and a
// stream refused before it opened (full queue, bad spec, queued-out deadline).
func (res *result) readAnswer(resp *http.Response, batch bool) {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		res.retryAfter = time.Duration(secs) * time.Second
	}
	blob, err := io.ReadAll(resp.Body)
	switch valid := err == nil && json.Valid(blob); {
	case !valid && (err != nil || res.status >= 500):
		// The connection died mid-read, or a 5xx came with a non-JSON body
		// (a dying peer's truncated envelope, proxy text): a transport
		// casualty whatever the status line promised, not a JSON bug.
		res.transport = true
	case !valid:
		res.badJSON = true
	case res.status < 200 || res.status >= 300:
		res.parseError(blob)
	case batch:
		res.parseBatch(blob)
	default:
		res.parseReport(blob)
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

// parseReport checks a 2xx explain/match body for the degradation marker,
// only ever raising it (parseBatch folds every item in). The body may be
// enveloped ({data: {...}}) or bare (the stream's done event, a batch item's
// data); a body without the fields decodes with them absent.
func (res *result) parseReport(blob []byte) {
	var rep struct {
		Degraded     bool               `json:"degraded"`
		QualityBound *wire.QualityBound `json:"qualityBound"`
	}
	if decodeBody(blob, &rep) != nil {
		return
	}
	if rep.Degraded {
		res.degraded = true
		res.missingBound = res.missingBound || rep.QualityBound == nil
	}
}

// parseBatch unpacks a 2xx /v1/explain/batch body: every item envelope is
// classified independently — data items run the single-answer contract
// check (degraded bound), error items split into
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
				wire.CodeDeadlineRunning, wire.CodeInjected:
				res.itemOverload++
			default:
				res.itemErrors++
			}
		case len(item.Data) > 0:
			res.parseReport(item.Data)
		default:
			res.itemErrors++
		}
	}
}

// readStream consumes an explain's SSE stream, recording the anytime
// latencies since t0: ttfe at the first `improvement` event, ttconverged at
// the `done` event. A mid-stream `error` event carries the envelope's error
// shape and is terminal — the stream already consumed the budget, so it is
// never retried.
func (res *result) readStream(body io.Reader, t0 time.Time) {
	sc := bufio.NewScanner(body)
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
	switch {
	case sc.Err() != nil:
		*res = result{transport: true}
	case !done && !res.streamDead:
		// The stream ended without a done or error event: truncated.
		res.transport = true
	}
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

// getData GETs one v1 endpoint and decodes its envelope's data into v.
func getData(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New(resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return decodeBody(blob, v)
}
