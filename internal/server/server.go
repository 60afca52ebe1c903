// Package server is the why-query service layer: a long-running HTTP/JSON
// daemon over one or more loaded datasets, each wrapped in a concurrency-safe
// core.Engine. It serves the why-query workflow of the thesis — submit a
// failing query plus a cardinality expectation, receive ranked explanations —
// the way provenance engines are actually consumed (PUG serves why/why-not
// provenance over stored instances; the GQL complexity line assumes a
// resident database answering many queries against one loaded graph).
//
// Endpoints:
//
//	POST /v1/explain   query spec + C1/C2 bounds + relaxation options →
//	                   ranked explanation report with convergence trace
//	POST /v1/match     count/find through the compiled-plan path
//	GET  /v1/datasets  loaded datasets and their built-in queries
//	GET  /v1/stats     plan-/count-/candidate-/statistics-cache hit rates,
//	                   search-kernel counters (executions / dedup hits) per
//	                   explanation family, worker configuration, request
//	                   counters, resilience counters
//	GET  /healthz      liveness
//	GET  /readyz       readiness: 503 while datasets load and during drain
//
// One process serves each dataset whole: every count an answer needs runs on
// the dataset's own engine, and the daemon neither calls nor answers another
// daemon.
//
// Concurrency and overload model: who may run and at what quality is decided
// in internal/resilience. Each dataset owns a resilience.Gate sized off its
// engine's worker count, so a burst queues instead of oversubscribing the
// matcher; an admitted explain runs on its request's goroutine. This package
// maps the rung of the gate's ladder that refused a request onto the wire
// (admit; a full queue is the only overload refusal, 429) and applies the
// degraded state's clamps to an explain and stamps the quality bound
// (runExplain); the brownout state is a function of the gates' occupancy
// alone, and it never refuses a request. An admitted request runs under its
// own context deadline threaded through core.ExplainCtx, so an abandoned one
// stops within one candidate execution. A handler panic is
// recovered to a 500 with a request id, counted and stack-logged. An optional
// seeded fault injector (whydbd -inject) exercises each of these paths
// deterministically.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/match"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/wire"
	"repro/internal/workload"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the client abandoned the request mid-explain.
const StatusClientClosedRequest = 499

// Config tunes the daemon. The zero value picks the documented defaults.
type Config struct {
	// DefaultTimeout bounds a request that names no timeout (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (0 = 120s).
	MaxTimeout time.Duration
	// MaxBudget clamps client-requested budgets (0 = 20000).
	MaxBudget int
	// MaxCountCap clamps /v1/match count-mode enumeration: a request asking
	// for an exact count (countCap 0) or a larger cap counts at most this
	// many results (0 = 10,000,000). Keeps a cross-product query from
	// holding an execution slot indefinitely.
	MaxCountCap int
	// MaxResultSample clamps /v1/explain's resultSample (0 = 10,000): the
	// result-distance computation enumerates up to resultSample result
	// graphs per rewriting with no cancellation hook, so it must stay
	// bounded for the same reason as the match caps.
	MaxResultSample int
	// MaxMutationBatch caps the total elements (adds + removes) of one
	// /v1/graph/mutate batch (0 = 100,000). A batch clones the graph before
	// applying, so an unbounded batch is an unbounded memory spike.
	MaxMutationBatch int
	// QueueCap bounds each dataset's admission queue (0 = 4× the dataset's
	// admission capacity). A request arriving at a full queue answers 429
	// with Retry-After instead of waiting.
	QueueCap int
	// MaxQueueWait bounds how long an admitted-to-queue request may wait for
	// an execution slot before answering 504 (0 = 5s).
	MaxQueueWait time.Duration
	// MaxBatch caps the number of items one /v1/explain/batch request may
	// carry (0 = 64). A batch is admitted per work group, not per item, so
	// the cap bounds how much distinct work one request can enqueue.
	MaxBatch int
	// Resilience tunes the brownout controller.
	Resilience resilience.Config
	// Injector, when non-nil, injects deterministic faults (whydbd -inject).
	Injector *faultinject.Injector
}

func (c *Config) fill() {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 20000
	}
	if c.MaxCountCap == 0 {
		c.MaxCountCap = 10000000
	}
	if c.MaxResultSample == 0 {
		c.MaxResultSample = 10000
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = 5 * time.Second
	}
	if c.MaxMutationBatch == 0 {
		c.MaxMutationBatch = 100000
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
}

// The /v1/match find-mode limits: the enumeration bound of a request that
// names none, and the clamp on one that does.
const (
	defaultFindLimit = 20
	maxFindLimit     = 1000
)

// dataset is one loaded graph with its engine, built-in workload queries,
// and admission gate.
//
// The engine lives behind an atomic pointer because mutation replaces it
// wholesale: a mutate batch forks the graph, applies the writes, and
// publishes the engine's successor (core.Engine.Successor) as the next epoch.
// Handlers snapshot the pointer once per request, so an in-flight search
// finishes on the epoch it started on while new requests see the new one —
// and since the plan/count/candidate caches hang off the engine, and the
// successor copies only the entries the batch cannot have changed, there are
// no stale hits across epochs by construction.
type dataset struct {
	name     string
	eng      atomic.Pointer[core.Engine]
	builtins map[string]func() *query.Query
	names    []string // builtin names, insertion order
	failing  func(string) (*query.Query, error)

	// Mutation state: mutMu serializes writers (readers never take it),
	// epoch counts published graph versions (1 at boot, one more per applied
	// batch), lastRefreezeNs the latest publication's build time. source
	// records where the boot graph came from ("datagen" or
	// "snapshot:<file>").
	mutMu          sync.Mutex
	epoch          atomic.Int64
	lastRefreezeNs atomic.Int64
	source         string

	// gate admits requests to the engine: as many execute at once as the
	// engine has workers, excess requests wait in its bounded queue.
	gate *resilience.Gate
}

// engine returns the dataset's current engine. Handlers call it once per
// request and use that engine throughout, so an epoch swap mid-request
// cannot mix two graphs in one answer.
func (ds *dataset) engine() *core.Engine { return ds.eng.Load() }

// Server is the why-query HTTP daemon state. Register datasets with
// AddDataset (safe while serving: whydbd registers datasets as they finish
// generating, behind /readyz); the handler is safe for concurrent use.
type Server struct {
	cfg   Config
	start time.Time
	res   *resilience.Controller

	mu       sync.RWMutex
	datasets map[string]*dataset

	notReady atomic.Value // string: why /readyz answers 503 ("" = ready)
	draining atomic.Bool

	drainCtx    context.Context // cancelled by CancelInFlight
	cancelDrain context.CancelFunc

	reqTotal      atomic.Int64
	reqs          [numEndpoints]atomic.Int64 // per endpoint; also its fault-injection draw sequence
	reqBatchItems atomic.Int64
	reqErrors     atomic.Int64
	reqCancelled  atomic.Int64

	queueFull      atomic.Int64
	expiredQueued  atomic.Int64
	expiredRunning atomic.Int64
	degradedServed atomic.Int64
	panics         atomic.Int64
	injected       atomic.Int64

	reqSeq atomic.Uint64 // request ids
}

// endpoint indexes the per-endpoint request table. Each row's name is at
// once its fault-injection site and (through handleStats) its /v1/stats
// request counter.
type endpoint int

const (
	epExplain endpoint = iota
	epStream
	epBatch
	epMatch
	epMutate
	numEndpoints
)

var endpointNames = [numEndpoints]string{"explain", "stream", "batch", "match", "mutate"}

// begin opens one request on an endpoint: it counts the request, draws the
// endpoint's next fault-injection decision (the n-th request of an endpoint
// takes draw n, so a seeded injector replays the same faults) and sleeps an
// injected latency.
func (s *Server) begin(ep endpoint) faultinject.Decision {
	s.reqTotal.Add(1)
	n := s.reqs[ep].Add(1)
	inject := s.cfg.Injector.Decide(endpointNames[ep], uint64(n-1))
	if inject.Kind == faultinject.Latency {
		time.Sleep(inject.Latency)
	}
	return inject
}

// New returns an empty server with the given configuration. The server
// starts not-ready ("loading"); call SetReady once datasets are registered.
func New(cfg Config) *Server {
	cfg.fill()
	drainCtx, cancelDrain := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		res:         resilience.NewController(cfg.Resilience),
		datasets:    make(map[string]*dataset),
		drainCtx:    drainCtx,
		cancelDrain: cancelDrain,
	}
	s.notReady.Store("loading")
	return s
}

// Resilience returns the server's brownout controller (whydbd flags and
// tests reach through it; ForceState pins the state for drills).
func (s *Server) Resilience() *resilience.Controller { return s.res }

// SetReady marks the server ready: /readyz answers 200.
func (s *Server) SetReady() { s.notReady.Store("") }

// SetNotReady marks the server not ready for the given reason.
func (s *Server) SetNotReady(reason string) { s.notReady.Store(reason) }

// BeginDrain starts a graceful shutdown: /readyz answers 503 ("draining")
// so load balancers stop routing, while in-flight and newly arriving
// requests keep being served.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.SetNotReady("draining")
}

// CancelInFlight cancels every in-flight request context: each request stops
// within one candidate execution and answers 503 + Retry-After. Call after
// BeginDrain when the drain deadline is near.
func (s *Server) CancelInFlight() { s.cancelDrain() }

// AddDataset registers a loaded engine under a name, with its built-in
// workload queries and the failing-variant resolver (nil = no failing
// variants). Safe to call while serving.
func (s *Server) AddDataset(name string, eng *core.Engine, builtins []workload.Named, failing func(string) (*query.Query, error)) {
	ds := &dataset{
		name:     name,
		builtins: make(map[string]func() *query.Query, len(builtins)),
		failing:  failing,
		source:   "datagen",
	}
	ds.eng.Store(eng)
	ds.epoch.Store(1)
	for _, nq := range builtins {
		ds.builtins[nq.Name] = nq.Build
		ds.names = append(ds.names, nq.Name)
	}
	s.mu.Lock()
	ds.gate = s.res.NewGate(eng.Workers(), s.cfg.QueueCap)
	s.datasets[name] = ds
	s.mu.Unlock()
}

// SetDatasetSource records where a dataset's boot graph came from, reported
// in /v1/stats ("datagen" is the default; whydbd -snapshot boots record
// "snapshot:<file>"). Call before SetReady.
func (s *Server) SetDatasetSource(name, source string) {
	if ds, ok := s.lookup(name); ok {
		ds.source = source
	}
}

// lookup returns the named dataset under the read lock.
func (s *Server) lookup(name string) (*dataset, bool) {
	s.mu.RLock()
	ds, ok := s.datasets[name]
	s.mu.RUnlock()
	return ds, ok
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/explain/stream", s.handleExplainStream)
	mux.HandleFunc("POST /v1/explain/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("POST /v1/graph/mutate", s.handleMutate)
	return s.recoverer(mux)
}

// ridCtxKey carries the request id in the request context.
type ridCtxKey struct{}

// requestID returns the id the recoverer assigned this request.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ridCtxKey{}).(string)
	return id
}

// clientRequestID validates a client-supplied X-Request-Id: up to 64
// characters of [A-Za-z0-9._-], so an hostile header cannot smuggle bytes
// into response headers or logs. Anything else is discarded.
func clientRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// recoverer tags every request with an X-Request-Id — the client's, when it
// sent a well-formed one, otherwise a generated sequence id — echoed on the
// response header, threaded through the request context into every envelope
// and error log, and converts a handler panic into a 500 carrying that id,
// with the stack logged and the panic counted — one bad request must not
// take the daemon down. The net/http sentinel http.ErrAbortHandler passes
// through (it is the documented way to abort a response).
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := clientRequestID(r)
		if id == "" {
			id = fmt.Sprintf("%08x", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), ridCtxKey{}, id))
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Add(1)
			s.reqErrors.Add(1)
			log.Printf("server: panic in %s %s (request %s): %v\n%s", r.Method, r.URL.Path, id, rec, debug.Stack())
			// Best effort: if the handler already wrote, the write fails.
			s.writeError(w, r, &failure{http.StatusInternalServerError, wire.Error{
				Code:    wire.CodeInternal,
				Message: fmt.Sprintf("internal error (request %s)", id),
			}})
		}()
		next.ServeHTTP(w, r)
	})
}

// writeJSON writes v as the response body with the given status — the raw
// writer behind the non-versioned endpoints (/healthz, /readyz), which keep
// their historical shapes and stay outside the v1 envelope.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		blob = []byte(`{"error":"encoding failure"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(blob, '\n'))
}

// writeData answers a v1 success: {requestId, data}.
func (s *Server) writeData(w http.ResponseWriter, r *http.Request, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, wire.CodeInternal, "encoding failure: %v", err)
		return
	}
	s.writePayload(w, r, blob)
}

// writePayload answers a v1 success whose data is already encoded. The
// envelope is appended around the bytes verbatim, in a pooled buffer, with
// no second scan of the payload — the same bytes the stream's `done` event
// and a batch item carry, which is what makes the transports
// differential-testable.
func (s *Server) writePayload(w http.ResponseWriter, r *http.Request, data []byte) {
	bp := envelopeBufs.Get().(*[]byte)
	b := wire.AppendEnvelope((*bp)[:0], requestID(r), data)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	if cap(b) <= maxPooledEnvelope {
		*bp = b
		envelopeBufs.Put(bp)
	}
}

// envelopeBufs recycles writePayload's envelope buffers. A buffer grown past
// maxPooledEnvelope by a large answer is left to the collector, so one big
// find cannot keep its size resident.
var envelopeBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledEnvelope = 64 << 10

// failure is a structured v1 error together with the HTTP status the
// blocking transports answer it with (a stream `error` event and a batch
// item carry the error alone). One is built per failed request, by newError
// or newInjectedError, which also do the counting.
type failure struct {
	status int
	err    wire.Error
}

// writeError answers a v1 failure: {requestId, error} with the structured
// error. 5xx answers are logged with the request id for correlation.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, f *failure) {
	id := requestID(r)
	if f.err.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa((f.err.RetryAfterMs+999)/1000))
	}
	if f.status >= http.StatusInternalServerError {
		log.Printf("server: %s %s request %s: %d %s: %s", r.Method, r.URL.Path, id, f.status, f.err.Code, f.err.Message)
	}
	s.writeJSON(w, f.status, wire.Envelope{RequestID: id, Error: &f.err})
}

// retryable reports whether a failure with this code may be retried verbatim
// (possibly against another replica) and the backoff hint to attach.
func retryable(code wire.ErrorCode) (bool, int) {
	switch code {
	case wire.CodeShed, wire.CodeDraining:
		return true, 1000
	default:
		return false, 0
	}
}

// newError builds a structured v1 failure and bumps the error counters —
// the one place a non-injected failure is made, whichever transport renders
// it.
func (s *Server) newError(status int, code wire.ErrorCode, format string, args ...any) *failure {
	s.reqErrors.Add(1)
	if status == StatusClientClosedRequest || status == http.StatusGatewayTimeout {
		s.reqCancelled.Add(1)
	}
	retry, afterMs := retryable(code)
	return &failure{status, wire.Error{
		Code:         code,
		Message:      fmt.Sprintf(format, args...),
		Retryable:    retry,
		RetryAfterMs: afterMs,
	}}
}

// fail writes a v1 error envelope and bumps the error counters.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, code wire.ErrorCode, format string, args ...any) {
	s.writeError(w, r, s.newError(status, code, format, args...))
}

// newInjectedError builds a fault-injected failure, marked so load
// generators count it as explained rather than as a service defect.
// Injected 503s are retryable (the fault models a transient outage);
// injected 500s are not.
func (s *Server) newInjectedError(status int, msg string) *failure {
	s.injected.Add(1)
	s.reqErrors.Add(1)
	f := &failure{status, wire.Error{Code: wire.CodeInjected, Message: msg, Injected: true}}
	if status == http.StatusServiceUnavailable {
		f.err.Retryable, f.err.RetryAfterMs = true, 1000
	}
	return f
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	s.writeJSON(w, http.StatusOK, wire.HealthResponse{
		Status:   "ok",
		Datasets: n,
		UptimeMs: time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	if reason, _ := s.notReady.Load().(string); reason != "" {
		s.writeJSON(w, http.StatusServiceUnavailable, wire.ReadyResponse{Ready: false, Reason: reason})
		return
	}
	s.writeJSON(w, http.StatusOK, wire.ReadyResponse{Ready: true})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]wire.DatasetInfo, 0, len(s.datasets))
	for _, name := range slices.Sorted(maps.Keys(s.datasets)) {
		ds := s.datasets[name]
		eng := ds.engine()
		g := eng.Graph()
		infos = append(infos, wire.DatasetInfo{
			Name:     name,
			Vertices: g.NumLiveVertices(),
			Edges:    g.NumLiveEdges(),
			Workers:  eng.Workers(),
			AdmitCap: ds.gate.Slots(),
			Builtins: append([]string(nil), ds.names...),
		})
	}
	s.writeData(w, r, infos)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := wire.StatsResponse{
		UptimeMs: time.Since(s.start).Milliseconds(),
		Requests: wire.ServerCounters{
			Total:      s.reqTotal.Load(),
			Explain:    s.reqs[epExplain].Load(),
			Stream:     s.reqs[epStream].Load(),
			Batch:      s.reqs[epBatch].Load(),
			BatchItems: s.reqBatchItems.Load(),
			Match:      s.reqs[epMatch].Load(),
			Mutate:     s.reqs[epMutate].Load(),
			Errors:     s.reqErrors.Load(),
			Cancelled:  s.reqCancelled.Load(),
		},
		Datasets: make(map[string]wire.DatasetStats, len(s.datasets)),
	}
	snap := s.res.Snapshot()
	resp.Resilience = &wire.ResilienceStats{
		State:          snap.State.String(),
		Pressure:       snap.Pressure,
		Transitions:    snap.Transitions,
		QueueDepth:     snap.QueueDepth,
		QueueCap:       snap.QueueCap,
		QueueFull:      s.queueFull.Load(),
		ExpiredQueued:  s.expiredQueued.Load(),
		ExpiredRunning: s.expiredRunning.Load(),
		DegradedServed: s.degradedServed.Load(),
		Panics:         s.panics.Load(),
		Injected:       s.injected.Load(),
	}
	for name, ds := range s.datasets {
		eng := ds.engine()
		m := eng.Matcher()
		// Every applied batch publishes exactly one epoch, so both counters
		// are the epochs after the boot one.
		epoch := ds.epoch.Load()
		st := wire.DatasetStats{
			Workers:        eng.Workers(),
			AdmitCap:       ds.gate.Slots(),
			InFlight:       ds.gate.InFlight(),
			Epoch:          epoch,
			Source:         ds.source,
			Refreezes:      epoch - 1,
			Mutations:      epoch - 1,
			LastRefreezeMs: float64(ds.lastRefreezeNs.Load()) / 1e6,
		}
		st.CountCache = wire.NewCacheStats(m.CountCacheStats())
		st.CandCache = wire.NewCacheStats(m.CandCacheStats())
		kernel := eng.KernelCounters()
		st.Kernel = make(map[string]wire.KernelCounters, len(kernel))
		for family, c := range kernel {
			st.Kernel[family] = wire.KernelCounters{Executions: c.Executions, DedupHits: c.DedupHits}
		}
		resp.Datasets[name] = st
	}
	s.writeData(w, r, resp)
}

// decodeBody strictly decodes the request body into v (unknown fields and
// trailing garbage are errors, bodies are capped at 8 MiB). The returned
// status is 400 for malformed bodies and 413 for oversized ones.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	// Anything but the end of the body after the value is trailing data:
	// dec.More would pass a stray `}` or `]`, and what follows it.
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, errors.New("trailing data after JSON body")
	}
	return 0, nil
}

// resolveQuery materializes the request's query spec: exactly one of a
// built-in workload query (optionally its failing variant) or a custom wire
// query. The returned status is the HTTP code to report on error.
func (s *Server) resolveQuery(ds *dataset, builtin string, failing bool, wq *wire.Query) (*query.Query, int, error) {
	switch {
	case builtin != "" && wq != nil:
		return nil, http.StatusBadRequest, errors.New("builtin and query are mutually exclusive")
	case builtin != "":
		if failing {
			if ds.failing == nil {
				return nil, http.StatusBadRequest, fmt.Errorf("dataset %q has no failing variants", ds.name)
			}
			q, err := ds.failing(builtin)
			if err != nil {
				return nil, http.StatusNotFound, err
			}
			return q, 0, nil
		}
		build, ok := ds.builtins[builtin]
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown builtin query %q (see /v1/datasets)", builtin)
		}
		return build(), 0, nil
	case wq != nil:
		if failing {
			return nil, http.StatusBadRequest, errors.New("failing applies to builtin queries only")
		}
		q, err := wq.ToQuery()
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return q, 0, nil
	default:
		return nil, http.StatusBadRequest, errors.New("request needs a builtin name or a query spec")
	}
}

// admit passes one request through its dataset's gate (resilience.Gate.Enter
// is the ladder) and maps the rung that refused it onto the wire: 429 +
// Retry-After when the queue is full, the only overload refusal (not 504 —
// the client did nothing slow, the server is full), 504 expired-queued past
// the max queue wait, the context ladder when the request's own deadline or
// cancellation ended the wait. On success release frees the slot (late,
// under the injected starve fault) and state is the brownout state to serve
// the request under.
func (s *Server) admit(r *http.Request, ctx context.Context, ds *dataset, inject faultinject.Decision) (release func(), state resilience.State, f *failure) {
	release, state, err := ds.gate.Enter(ctx, s.cfg.MaxQueueWait)
	switch {
	case err == nil:
	case errors.Is(err, resilience.ErrQueueFull):
		s.queueFull.Add(1)
		return nil, state, s.newError(http.StatusTooManyRequests, wire.CodeShed, "admission queue full (%d queued), retry later", ds.gate.QueueCap())
	case errors.Is(err, resilience.ErrQueueWait):
		s.expiredQueued.Add(1)
		return nil, state, s.newError(http.StatusGatewayTimeout, wire.CodeDeadlineQueued, "no execution slot within %s", s.cfg.MaxQueueWait)
	default:
		return nil, state, s.ctxError(r, err, true)
	}
	if inject.Kind == faultinject.Starve {
		// The slot-leak fault: the slot stays held for the injected duration
		// past the response.
		free, hold := release, inject.Starve
		release = func() {
			go func() {
				time.Sleep(hold)
				free()
			}()
		}
	}
	return release, state, nil
}

// ctxError classifies a context error: 504 for an expired deadline (counted
// as expired-queued or expired-running), 503 + Retry-After when the drain
// cancelled the request (the client did nothing wrong — it should retry
// against another instance), 499 when the client went away.
func (s *Server) ctxError(r *http.Request, err error, queued bool) *failure {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code := wire.CodeDeadlineRunning
		if queued {
			s.expiredQueued.Add(1)
			code = wire.CodeDeadlineQueued
		} else {
			s.expiredRunning.Add(1)
		}
		return s.newError(http.StatusGatewayTimeout, code, "request deadline exceeded")
	case s.drainCtx.Err() != nil && r.Context().Err() == nil:
		return s.newError(http.StatusServiceUnavailable, wire.CodeDraining, "server draining, retry against another instance")
	default:
		return s.newError(StatusClientClosedRequest, wire.CodeCanceled, "client closed request")
	}
}

// requestContext derives the request's processing context: the client's
// connection context bounded by the requested (clamped) or default timeout,
// and additionally cancelled when CancelInFlight fires during drain.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	to := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		to = time.Duration(timeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(to, s.cfg.MaxTimeout))
	stop := context.AfterFunc(s.drainCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	inject := s.begin(epMatch)
	var req wire.MatchRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		s.fail(w, r, code, wire.CodeInvalidSpec, "bad request body: %v", err)
		return
	}
	ds, ok := s.lookup(req.Dataset)
	if !ok {
		s.fail(w, r, http.StatusNotFound, wire.CodeInvalidSpec, "unknown dataset %q (see /v1/datasets)", req.Dataset)
		return
	}
	if req.Limit < 0 || req.CountCap < 0 || req.TimeoutMs < 0 {
		s.fail(w, r, http.StatusBadRequest, wire.CodeBoundViolation, "limit, countCap, and timeoutMs must be non-negative")
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "count"
	}
	if mode != "count" && mode != "find" {
		s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "unknown mode %q (want \"count\" or \"find\")", req.Mode)
		return
	}
	q, code, err := s.resolveQuery(ds, req.Builtin, req.Failing, req.Query)
	if err != nil {
		s.fail(w, r, code, wire.CodeInvalidSpec, "%v", err)
		return
	}
	if inject.Kind == faultinject.Error {
		s.writeError(w, r, s.newInjectedError(http.StatusInternalServerError, "injected fault: error"))
		return
	}
	countCap := req.CountCap
	if countCap == 0 || countCap > s.cfg.MaxCountCap {
		countCap = s.cfg.MaxCountCap
	}
	limit := req.Limit
	if limit == 0 {
		limit = defaultFindLimit
	}
	limit = min(limit, maxFindLimit)
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	release, _, f := s.admit(r, ctx, ds, inject)
	if f != nil {
		s.writeError(w, r, f)
		return
	}
	// The matching engine has no in-flight cancellation hook (unlike the
	// explanation searches), so the match runs on its own goroutine: the
	// handler answers at the deadline, while the execution slot stays held
	// until the (count-capped / limit-bounded) enumeration finishes — a
	// timed-out request never lets a new one oversubscribe the matcher.
	done := make(chan []byte, 1)
	eng := ds.engine() // pin this request's epoch
	go func() {
		defer release()
		m := eng.Matcher()
		if mode == "count" {
			done <- wire.AppendMatch(nil, m.Count(q, countCap), nil)
			return
		}
		var rows match.Rows
		m.FindSorted(q, match.Options{Limit: limit}, &rows)
		done <- wire.AppendMatch(nil, rows.Len(), &rows)
	}()
	select {
	case payload := <-done:
		s.writePayload(w, r, payload)
	case <-ctx.Done():
		s.writeError(w, r, s.ctxError(r, ctx.Err(), false))
	}
}
