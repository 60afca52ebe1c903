package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"

	"repro/internal/wire"
)

// job is one request of the corpus: a body and the endpoint its kind names.
type job struct {
	kind string
	body []byte
}

// endpoints maps each job kind to its path: stream is an explain body
// answered over SSE, batch a BatchExplainRequest.
var endpoints = map[string]string{
	"explain": "/v1/explain", "stream": "/v1/explain/stream", "batch": "/v1/explain/batch",
	"match": "/v1/match", "mutate": "/v1/graph/mutate",
}

// buildCorpus assembles the job list the workers cycle through for cfg.mix;
// the second result counts requests that could not be marshaled.
func buildCorpus(client *http.Client, cfg *config) ([]job, int, error) {
	explains := cfg.mix != "match"
	matches := cfg.mix == "match" || cfg.mix == "mixed" || cfg.mix == "chaos"
	jobs, skipped, err := buildJobs(client, cfg.addr, explains, matches, cfg.allowPartial)
	if err != nil {
		return nil, 0, err
	}
	if len(jobs) == 0 {
		return nil, 0, errors.New("the daemon serves no datasets")
	}
	switch cfg.mix {
	case "stream":
		for i := range jobs {
			jobs[i].kind = "stream"
		}
	case "batch":
		jobs = batchJobs(jobs, cfg.batchSize, cfg.dupFrac)
	case "chaos":
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
		bjs := batchJobs(jobs, cfg.batchSize, cfg.dupFrac)
		jobs = interleave(jobs, bjs[:min(len(bjs), len(jobs)/4+1)])
	}
	if cfg.mutateFrac > 0 {
		mj, err := mutateJobs(client, cfg.addr, cfg.mutateFrac, len(jobs))
		if err != nil {
			return nil, 0, err
		}
		if len(mj) == 0 {
			fmt.Fprintln(os.Stderr, "whyload: -mutate-frac set but every dataset is sharded; no mutations sent")
		}
		jobs = interleave(jobs, mj)
	}
	return jobs, skipped, nil
}

// buildJobs derives the request corpus from the daemon's dataset listing:
// per built-in query two explains and/or two matches. A request that fails
// to marshal is counted and skipped, never fatal: one bad record must not
// kill a load run.
func buildJobs(client *http.Client, addr string, explains, matches, allowPartial bool) ([]job, int, error) {
	var infos []wire.DatasetInfo
	if err := getData(client, addr+"/v1/datasets", &infos); err != nil {
		return nil, 0, fmt.Errorf("discovering datasets: %w", err)
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
	for _, info := range infos {
		for _, builtin := range info.Builtins {
			if explains {
				add("explain", wire.ExplainRequest{
					Dataset: info.Name, Builtin: builtin, Failing: true, Lower: 1, Budget: explainBudget,
					AllowPartial: allowPartial,
				})
				add("explain", wire.ExplainRequest{
					Dataset: info.Name, Builtin: builtin, Lower: 1, Upper: 3, Budget: explainBudget,
					AllowPartial: allowPartial,
				})
			}
			if matches {
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
	dups := min(int(math.Ceil(dupFrac*float64(size))), size)
	next := 0
	out := make([]job, 0, len(specs))
	for a := range specs {
		items := make([]json.RawMessage, 0, size)
		for d := 0; d < dups; d++ {
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

// mutateJobs builds write jobs for -mutate-frac: each is a self-contained
// batch — two fresh "loadtest" vertices joined by a "loadtest" edge via
// batch-local references — so it always names live elements no matter how
// many mutations ran before it, and its types match no built-in query, so
// the read corpus' answers stay comparable while every write still publishes
// a new epoch. Sharded datasets reject mutation, so they are skipped
// (discovered from /v1/stats). The job count makes mutations ≈ frac of the
// final corpus: n = frac·len(jobs)/(1−frac), at least one per dataset.
func mutateJobs(client *http.Client, addr string, frac float64, corpus int) ([]job, error) {
	stats := fetchStats(client, addr)
	if stats == nil {
		return nil, errors.New("discovering mutable datasets: /v1/stats unavailable")
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
	n := max(int(math.Ceil(frac*float64(corpus)/(1-frac))), len(names))
	vertex := func(tag string) wire.MutVertex {
		return wire.MutVertex{Attrs: map[string]wire.Value{
			"type": {Kind: "string", Str: "loadtest"},
			"tag":  {Kind: "string", Str: tag},
		}}
	}
	jobs := make([]job, 0, n)
	for i := 0; i < n; i++ {
		body, err := json.Marshal(wire.MutateRequest{
			Dataset:     names[i%len(names)],
			AddVertices: []wire.MutVertex{vertex("whyload-a"), vertex("whyload-b")},
			AddEdges:    []wire.MutEdge{{From: -1, To: -2, Type: "loadtest"}},
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
