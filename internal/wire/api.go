package wire

import "encoding/json"

// This file defines the request/response envelopes of the whydbd HTTP API.
// The query payload of a request is either a built-in workload query
// (Builtin, optionally its Failing variant) or a custom Query — exactly one
// of the two.

// ExplainRequest is the body of POST /v1/explain: a query spec plus the
// expected cardinality interval (C1/C2 bounds) and relaxation options.
type ExplainRequest struct {
	// Dataset names the loaded dataset to explain against.
	Dataset string `json:"dataset"`
	// Builtin names a built-in workload query (e.g. "LDBC QUERY 2").
	Builtin string `json:"builtin,omitempty"`
	// Failing selects the built-in query's failing (why-empty) variant.
	Failing bool `json:"failing,omitempty"`
	// Query is a custom query spec (mutually exclusive with Builtin).
	Query *Query `json:"query,omitempty"`
	// Lower/Upper are the expected cardinality bounds; both zero means
	// "at least one result" (why-empty debugging). Upper 0 = unbounded.
	Lower int `json:"lower,omitempty"`
	Upper int `json:"upper,omitempty"`
	// MaxRewritings caps reported modification-based explanations (0 = 3).
	MaxRewritings int `json:"maxRewritings,omitempty"`
	// FineGrained forces the rewriting engine: false = Chapter 5 coarse
	// relaxation, true = Chapter 6 TRAVERSESEARCHTREE. Absent = pick by
	// problem kind.
	FineGrained *bool `json:"fineGrained,omitempty"`
	// AllowTopology enables topology-changing rewritings.
	AllowTopology bool `json:"allowTopology,omitempty"`
	// Budget caps candidate executions per explanation engine (0 = server
	// default; clamped to the server's maximum).
	Budget int `json:"budget,omitempty"`
	// ResultSample bounds result enumeration per result-distance computation.
	ResultSample int `json:"resultSample,omitempty"`
	// TimeoutMs bounds the request's processing time (0 = server default;
	// clamped to the server's maximum).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// BatchExplainRequest is the body of POST /v1/explain/batch: up to the
// server's maximum (64) independent explain specs answered in one round trip.
// Every item carries its own dataset, bounds, and knobs; the per-request
// TimeoutMs of each item bounds that item alone. Items sharing a canonical
// query run the search once and fan the answer out (grouping), which is
// observable only in /v1/stats — each item's payload is byte-identical to
// what a separate /v1/explain call would have returned.
type BatchExplainRequest struct {
	Items []ExplainRequest `json:"items"`
}

// BatchExplainResponse answers POST /v1/explain/batch. Items[i] is the full
// v1 envelope — {requestId, data} or {requestId, error} — that request
// Items[i] would have received from /v1/explain: items fail and degrade
// independently. The enclosing response is itself wrapped in the
// usual envelope, whose requestId identifies the batch.
type BatchExplainResponse struct {
	Items []Envelope `json:"items"`
}

// MatchRequest is the body of POST /v1/match: count or enumerate the
// results of a query through the compiled-plan path.
type MatchRequest struct {
	Dataset string `json:"dataset"`
	Builtin string `json:"builtin,omitempty"`
	Failing bool   `json:"failing,omitempty"`
	Query   *Query `json:"query,omitempty"`
	// Mode is "count" (default) or "find".
	Mode string `json:"mode,omitempty"`
	// Limit bounds enumerated results in find mode (0 = server default).
	Limit int `json:"limit,omitempty"`
	// CountCap stops counting at the cap in count mode (0 = the server's
	// maximum; a larger cap is lowered to it).
	CountCap int `json:"countCap,omitempty"`
	// TimeoutMs bounds the request's processing time (0 = server default;
	// clamped to the server's maximum).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// MatchResponse answers /v1/match. Count is the result-graph count (find
// mode: the number of enumerated results); Results is present in find mode,
// deterministically ordered.
type MatchResponse struct {
	Count   int      `json:"count"`
	Results []Result `json:"results,omitempty"`
	// Partial marks a count the server's clamp stopped (CountCap 0 or above
	// the server's maximum, and the count reached that maximum): Count is a
	// lower bound. A count that reaches the request's own cap is not partial.
	Partial bool `json:"partial,omitempty"`
}

// MutateRequest is the body of POST /v1/graph/mutate: one atomic batch of
// graph writes. The whole batch applies to a fresh clone of the dataset's
// graph which is then frozen and published as a new epoch — in-flight
// searches finish on the old epoch's CSR, new requests see the new one, and
// the per-engine plan/count/candidate caches are invalidated wholesale by
// the swap.
type MutateRequest struct {
	Dataset string `json:"dataset"`
	// AddVertices appends new vertices; response reports their assigned ids.
	AddVertices []MutVertex `json:"addVertices,omitempty"`
	// AddEdges appends new edges. From/To are either existing vertex ids
	// (>= 0) or negative batch-local references: -1 is the first vertex of
	// AddVertices in this batch, -2 the second, and so on.
	AddEdges []MutEdge `json:"addEdges,omitempty"`
	// RemoveVertices tombstones vertices (and their incident edges);
	// RemoveEdges tombstones individual edges. Ids are never reused.
	RemoveVertices []int `json:"removeVertices,omitempty"`
	RemoveEdges    []int `json:"removeEdges,omitempty"`
	// TimeoutMs bounds the request's processing time (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// MutVertex is one vertex to insert.
type MutVertex struct {
	Attrs map[string]Value `json:"attrs,omitempty"`
}

// MutEdge is one edge to insert (see MutateRequest.AddEdges for the
// negative-reference convention).
type MutEdge struct {
	From  int              `json:"from"`
	To    int              `json:"to"`
	Type  string           `json:"type"`
	Attrs map[string]Value `json:"attrs,omitempty"`
}

// MutateResponse answers /v1/graph/mutate after the new epoch is live.
type MutateResponse struct {
	// Epoch is the dataset's epoch after this batch (boot epoch is 1).
	Epoch int64 `json:"epoch"`
	// AddedVertices/AddedEdges are the ids assigned to this batch's inserts,
	// in request order.
	AddedVertices []int `json:"addedVertices,omitempty"`
	AddedEdges    []int `json:"addedEdges,omitempty"`
	// RemovedVertices/RemovedEdges count tombstones this batch created,
	// incident-edge cascades included.
	RemovedVertices int `json:"removedVertices"`
	RemovedEdges    int `json:"removedEdges"`
	// Vertices/Edges are the live (non-tombstoned) totals after the batch.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// RefreezeMs is the time spent under the dataset's write lock forking
	// the graph, applying the batch and deriving and publishing the engine
	// of the new epoch — not the wait for a slot or for the lock.
	RefreezeMs float64 `json:"refreezeMs"`
}

// ErrorCode is the machine-readable failure classification of the v1 API.
// Load generators and clients branch on the code — never on message text or
// bare HTTP status — to decide retries and outcome accounting.
type ErrorCode string

const (
	// CodeInvalidSpec: the request body, query spec, or named dataset/builtin
	// does not resolve to an executable explain/match (400/404/413).
	CodeInvalidSpec ErrorCode = "invalid_spec"
	// CodeBoundViolation: a numeric knob is outside its admissible bounds
	// (negative budget, lower > upper, ...) (400).
	CodeBoundViolation ErrorCode = "bound_violation"
	// CodeDeadlineQueued: the deadline expired while the request waited for
	// an execution slot (504).
	CodeDeadlineQueued ErrorCode = "deadline_queued"
	// CodeDeadlineRunning: the deadline expired mid-execution (504).
	CodeDeadlineRunning ErrorCode = "deadline_running"
	// CodeShed: the admission queue was full, the only overload refusal
	// (429, retryable after RetryAfterMs). The brownout controller never
	// refuses a request.
	CodeShed ErrorCode = "shed"
	// CodeInjected: a whydbd -inject fault produced this failure; load
	// generators count it as explained, not as a service defect.
	CodeInjected ErrorCode = "injected"
	// CodeInternal: a recovered panic or other unexpected server fault (500).
	CodeInternal ErrorCode = "internal"
	// CodeCanceled: the client went away before the answer was ready (499).
	CodeCanceled ErrorCode = "canceled"
	// CodeDraining: the daemon is shutting down and no longer admits work
	// (503, retryable against another replica).
	CodeDraining ErrorCode = "draining"
)

// Error is the structured failure payload of the v1 envelope.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// Retryable marks failures a client may retry verbatim (possibly against
	// another replica); RetryAfterMs, when > 0, is the server's backoff hint
	// (mirrors the Retry-After header).
	Retryable    bool `json:"retryable"`
	RetryAfterMs int  `json:"retryAfterMs,omitempty"`
	// Injected marks a whydbd -inject fault regardless of code.
	Injected bool `json:"injected,omitempty"`
}

// Envelope is the unified v1 response shape: every endpoint answers
// {requestId, data} on success and {requestId, error} on failure. Data holds
// the endpoint's payload (Report, MatchResponse, []DatasetInfo,
// StatsResponse) verbatim, so its bytes stay comparable across transports —
// the `done` event of /v1/explain/stream carries the same bytes.
type Envelope struct {
	RequestID string          `json:"requestId"`
	Data      json.RawMessage `json:"data,omitempty"`
	Error     *Error          `json:"error,omitempty"`
}

// DatasetInfo describes one loaded dataset (GET /v1/datasets).
type DatasetInfo struct {
	Name     string   `json:"name"`
	Vertices int      `json:"vertices"`
	Edges    int      `json:"edges"`
	Workers  int      `json:"workers"`
	AdmitCap int      `json:"admitCap"`
	Builtins []string `json:"builtins"`
}

// CacheStats reports one cache's counters (GET /v1/stats).
type CacheStats struct {
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hitRate"`
}

// NewCacheStats assembles counters into CacheStats with the derived rate.
func NewCacheStats(hits, misses, entries int) CacheStats {
	cs := CacheStats{Hits: hits, Misses: misses, Entries: entries}
	if total := hits + misses; total > 0 {
		cs.HitRate = float64(hits) / float64(total)
	}
	return cs
}

// CoalescingStats is always zero (GET /v1/stats): concurrent cache misses on
// one key each compute it, so no lookup waits on another and no computation
// is shared. The type stays until the benchmark that reads
// coalescing.shared drops it.
//
// DatasetStats.StatsCache is always zero as well: the statistics keep no
// cache of their own, and their lookups count in CandCache (vertex
// cardinalities) and CountCache (Path(n) counts). The field stays until the
// benchmark that reads statsCache drops it.
//
// DatasetStats.PlanCache is always zero too: the matcher caches no compiled
// plans (a count-cache miss and every enumeration compile into the executing
// context's own plan). The field stays until the benchmark that reads
// planCache drops it.
type CoalescingStats struct {
	Waits  int64 `json:"waits"`
	Shared int64 `json:"shared"`
}

// KernelCounters reports one explanation family's accumulated search-kernel
// counters (GET /v1/stats): candidate executions and executed-key dedup hits.
// Speculated and SpecWaste are always 0: no search speculates. They stay
// until the benchmark that reads them drops them.
type KernelCounters struct {
	Executions int64 `json:"executions"`
	DedupHits  int64 `json:"dedupHits"`
	Speculated int64 `json:"speculated"`
	SpecWaste  int64 `json:"specWaste"`
}

// DatasetStats reports one engine's cache, worker, and search-kernel state
// (GET /v1/stats). Kernel is keyed by explanation family: "relax",
// "modtree", "mcs".
type DatasetStats struct {
	Workers  int `json:"workers"`
	AdmitCap int `json:"admitCap"`
	InFlight int `json:"inFlight"`
	// Epoch is the dataset's mutation epoch (1 at boot; each applied mutate
	// batch publishes the next). Source is where the boot graph came from:
	// "datagen" or "snapshot:<file>". Refreezes counts epoch publications
	// and Mutations applied batches (both Epoch-1: one batch publishes one
	// epoch); LastRefreezeMs is the latest publication's build time.
	Epoch          int64                     `json:"epoch"`
	Source         string                    `json:"source"`
	Refreezes      int64                     `json:"refreezes"`
	Mutations      int64                     `json:"mutations"`
	LastRefreezeMs float64                   `json:"lastRefreezeMs,omitempty"`
	PlanCache      CacheStats                `json:"planCache"` // always zero; see CoalescingStats
	CountCache     CacheStats                `json:"countCache"`
	CandCache      CacheStats                `json:"candCache"`
	StatsCache     CacheStats                `json:"statsCache"` // always zero; see CoalescingStats
	Kernel         map[string]KernelCounters `json:"kernel"`
	// Coalescing is always zero; see CoalescingStats.
	Coalescing CoalescingStats `json:"coalescing"`
	// Sharding is always nil: the daemon serves every dataset from one
	// process. The field and its types stay until the benchmark that asserts
	// on it drops it.
	Sharding *ShardingStats `json:"sharding,omitempty"`
}

// ShardStats is one entry of ShardingStats, which no daemon reports any more
// (DatasetStats.Sharding is always nil).
type ShardStats struct {
	Name string `json:"name"`
	// Lo/Hi is the shard's vertex-range partition [lo, hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Breaker is the circuit-breaker state: "closed", "open", or "half-open".
	Breaker string `json:"breaker"`
	// ConsecFailures counts failures since the last success.
	ConsecFailures int `json:"consecFailures"`
	// Requests/Failures/Retries count shard RPC attempts and their outcomes;
	// retries are re-attempts after a failed or timed-out call.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	Retries  int64 `json:"retries"`
	// HedgesLaunched/HedgesWon count duplicate requests fired after the
	// p99-based hedge delay, and how many beat the primary.
	HedgesLaunched int64 `json:"hedgesLaunched"`
	HedgesWon      int64 `json:"hedgesWon"`
	// BreakerOpened/BreakerClosed count breaker transitions into open and
	// back into closed.
	BreakerOpened int64 `json:"breakerOpened"`
	BreakerClosed int64 `json:"breakerClosed"`
}

// ShardingStats was a dataset's shard-group health. No daemon reports it any
// more (DatasetStats.Sharding is always nil); the type stays until the
// benchmark that compiles against it drops it.
type ShardingStats struct {
	// Mode is "local" (single-process multi-shard) or "http" (peer fan-out).
	Mode      string       `json:"mode"`
	NumShards int          `json:"numShards"`
	Shards    []ShardStats `json:"shards"`
	// PartialServed counts answers computed without every shard
	// (allowPartial degradation).
	PartialServed int64 `json:"partialServed"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	UptimeMs   int64                   `json:"uptimeMs"`
	Requests   ServerCounters          `json:"requests"`
	Datasets   map[string]DatasetStats `json:"datasets"`
	Resilience *ResilienceStats        `json:"resilience,omitempty"`
}

// ResilienceStats reports the brownout controller and overload counters
// (GET /v1/stats, mirrored into the whyload summary).
type ResilienceStats struct {
	// State is the brownout state of the latest admission: "healthy" or
	// "degraded".
	State string `json:"state"`
	// Pressure is the fullest admission gate's occupancy, (queued +
	// in-flight) / (queue bound + slots), at the latest admission.
	Pressure float64 `json:"pressure"`
	// Transitions counts entries into each brownout state, one per flip
	// between consecutive admissions.
	Transitions map[string]int64 `json:"transitions,omitempty"`
	// Shed is always zero: the brownout controller has no shedding state, and
	// a full queue, the only 429, counts in QueueFull. The field stays until
	// the benchmark that reads shed drops it.
	Shed int64 `json:"shed"`
	// QueueFull counts requests answered 429 because the admission queue was
	// at capacity.
	QueueFull int64 `json:"queueFull"`
	// ExpiredQueued counts requests answered 504 after waiting out the max
	// queue time without getting a slot.
	ExpiredQueued int64 `json:"expiredQueued"`
	// ExpiredRunning counts requests answered 504 after their deadline fired
	// while executing.
	ExpiredRunning int64 `json:"expiredRunning"`
	// DegradedServed counts explains answered in degraded (brownout) mode.
	DegradedServed int64 `json:"degradedServed"`
	// Panics counts handler panics recovered by the middleware.
	Panics int64 `json:"panics"`
	// Injected counts fault-injected failures (whydbd -inject).
	Injected int64 `json:"injected"`
	// QueueDepth and QueueCap describe the bounded admission queue.
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
}

// ReadyResponse answers GET /readyz. Ready is false while datasets generate
// at startup and during SIGTERM drain; load balancers should route on this,
// not on /healthz (which answers as soon as the process serves).
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// ServerCounters are the daemon's request counters. Stream counts
// /v1/explain/stream requests and Batch counts /v1/explain/batch requests
// (neither is included in Explain; BatchItems counts the specs inside batch
// requests, each of which answers its own per-item envelope).
type ServerCounters struct {
	Total      int64 `json:"total"`
	Explain    int64 `json:"explain"`
	Stream     int64 `json:"stream"`
	Batch      int64 `json:"batch"`
	BatchItems int64 `json:"batchItems"`
	Match      int64 `json:"match"`
	Mutate     int64 `json:"mutate"`
	Errors     int64 `json:"errors"`
	Cancelled  int64 `json:"cancelled"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Datasets int    `json:"datasets"`
	UptimeMs int64  `json:"uptimeMs"`
}
