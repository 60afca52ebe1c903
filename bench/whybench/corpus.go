package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Corpus rules. They decide what "typical traffic" means, so they live next
// to the generator that enforces them:
//
//  1. Only connected queries (q.IsConnected()). A query with several weakly
//     connected components is a cross product; on the prototype one
//     4-component variant took 6.3 s, 29 % of a 1 600-query pass, and at
//     scale 16 such variants ran into the daemon's 30 s deadline. One query
//     would be the whole number. They belong to an adversarial corpus
//     (ROADMAP item 4), not to this one.
//  2. Inside a *_unique corpus no (dataset, canonical key) pair repeats, the
//     key being query.Key() — the key the daemon's plan and count caches use.
//     Whatever cross-request cache hits the daemon reports on such a corpus
//     come from sub-queries the searches share, never from a repeated request.
//  3. Every count the harness asks for, and every count it makes the daemon
//     do on the original query, is capped (countCapUnique), so that a relaxed
//     variant matching half the graph costs a bounded amount.
//  4. Every explain request is a real why-query: its bounds are chosen from
//     the harness's own count so that the answer is never "satisfied".
//  5. The generator is deterministic in the seed. workload.RandomExplanations
//     is not used because it picks "the first multi-valued predicate" in map
//     order, which differs between two runs of one seed.
const (
	// countCapUnique caps the harness's bound-choosing count, and is the
	// countCap that match_unique requests carry.
	countCapUnique = 2000
	// explainBudget is the candidate-execution budget of every explain
	// request — whyload's default.
	explainBudget = 150
	// findLimit is the limit of match_unique's find-mode requests.
	findLimit = 100
	// mutateEvery makes every mutateEvery-th request of repeat_mutate a write.
	mutateEvery = 100
)

// dataset is one data graph as the harness sees it: the oracle engine the
// expected answers come from, plus the built-in queries the daemon serves
// for the same name.
type dataset struct {
	name     string
	eng      *core.Engine
	builtins []workload.Named
	failing  func(string) (*query.Query, error)
}

// generateGraph mirrors cmd/whydbd's generate: the harness's oracle graph has
// to be the graph the daemon builds for the same -scale.
func generateGraph(name string, scale float64) *graph.Graph {
	if name == "ldbc" {
		return datagen.LDBC(datagen.DefaultLDBC().Scaled(scale))
	}
	cfg := datagen.DefaultDBpedia()
	cfg.Entities = int(float64(cfg.Entities) * scale)
	if cfg.Entities < 1 {
		cfg.Entities = 1
	}
	return datagen.DBpedia(cfg)
}

func newDataset(name string, g *graph.Graph) *dataset {
	ds := &dataset{name: name, eng: core.NewEngine(g)}
	if name == "ldbc" {
		ds.builtins, ds.failing = workload.LDBCQueries(), workload.FailingVariant
	} else {
		ds.builtins, ds.failing = workload.DBpediaQueries(), workload.DBpediaFailingVariant
	}
	return ds
}

// request is one HTTP request of a corpus together with what the harness
// needs to check the answer.
type request struct {
	kind    string // "explain", "match", "mutate", or a probe's "batch"
	body    []byte
	dataset int // index into the harness's datasets
	q       *query.Query
	// spec identifies a hot spec (index into the 16) so that answers to the
	// same spec can be compared byte for byte; -1 on unique corpora.
	spec int
	// explain: the expected interval; match: mode "count" or "find".
	expected metrics.Interval
	find     bool
}

// path is the endpoint the request is posted to.
func (r *request) path() string {
	switch r.kind {
	case "explain":
		return "/v1/explain"
	case "match":
		return "/v1/match"
	case "batch":
		return "/v1/explain/batch"
	default:
		return "/v1/graph/mutate"
	}
}

// corpus is a workload's request sequence plus the record the issue asks to
// keep about it.
type corpus struct {
	requests []request
	// warmup is the number of leading requests sent before measuring.
	warmup int
	// repeat says the reads may be cycled; a unique corpus ends the pass
	// when it runs out.
	repeat bool
	// writes, when set, holds one write per dataset: every mutateEvery-th
	// request of the sequence is the next of them in turn.
	writes []request
	info   corpusInfo
}

// at returns request i of the sequence, or nil when a unique corpus has run
// out.
func (c *corpus) at(i int) *request {
	if len(c.writes) > 0 {
		n := i / mutateEvery // writes before position i
		if (i+1)%mutateEvery == 0 {
			return &c.writes[n%len(c.writes)]
		}
		i -= n
	}
	if c.repeat {
		return &c.requests[i%len(c.requests)]
	}
	if i >= len(c.requests) {
		return nil
	}
	return &c.requests[i]
}

// corpusInfo is written to bench/out/corpus-<workload>.json.
type corpusInfo struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Size         int            `json:"size"`
	DistinctKeys int            `json:"distinctKeys"`
	Problems     map[string]int `json:"problems"`
	SHA256       string         `json:"sha256"`
}

func (c *corpus) finish(workload string, seed int64) {
	h := sha256.New()
	keys := make(map[string]bool)
	problems := make(map[string]int)
	for i := range c.requests {
		r := &c.requests[i]
		h.Write(r.body)
		h.Write([]byte{'\n'})
		if r.q != nil {
			keys[fmt.Sprintf("%d/%s", r.dataset, r.q.Key())] = true
		}
		switch {
		case r.kind == "explain":
			problems[r.class()]++
		case r.find:
			problems["find"]++
		default:
			problems[r.kind]++
		}
	}
	c.info = corpusInfo{
		Workload: workload, Seed: seed, Size: len(c.requests),
		DistinctKeys: len(keys), Problems: problems,
		SHA256: hex.EncodeToString(h.Sum(nil)),
	}
}

// class names the problem an explain request poses, from its bounds alone:
// the generator only emits bounds that make the request a real why-query.
func (r *request) class() string {
	switch {
	case r.expected.Upper > 0:
		return metrics.WhySoMany.String()
	case r.expected.Lower > 1:
		return metrics.WhySoFew.String()
	default:
		return metrics.WhyEmpty.String()
	}
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("whybench: marshaling a generated request: %v", err))
	}
	return blob
}

// hotSpecs is whyload's explain corpus: every built-in as its failing
// variant (why-empty) and under `lower 1 upper 3` — 16 bodies that fit every
// cache of the daemon.
func hotSpecs(dss []*dataset) []request {
	var out []request
	for di, ds := range dss {
		for _, b := range ds.builtins {
			fq, err := ds.failing(b.Name)
			if err != nil {
				panic(fmt.Sprintf("whybench: %v", err))
			}
			out = append(out, request{
				kind: "explain", dataset: di, q: fq, spec: len(out),
				expected: metrics.AtLeastOne,
				body: mustJSON(wire.ExplainRequest{
					Dataset: ds.name, Builtin: b.Name, Failing: true, Lower: 1, Budget: explainBudget,
				}),
			})
			out = append(out, request{
				kind: "explain", dataset: di, q: b.Build(), spec: len(out),
				expected: metrics.Interval{Lower: 1, Upper: 3},
				body: mustJSON(wire.ExplainRequest{
					Dataset: ds.name, Builtin: b.Name, Lower: 1, Upper: 3, Budget: explainBudget,
				}),
			})
		}
	}
	return out
}

// writeRequests is whyload's write, one per dataset: two fresh "loadtest"
// vertices joined by a "loadtest" edge through batch-local references. It
// names no existing element, so it applies whatever ran before it, and its
// type matches no built-in query, so the read answers stay checkable — while
// the daemon still pays the full clone, freeze, engine build and cache loss.
func writeRequests(dss []*dataset) []request {
	attrs := func(tag string) map[string]wire.Value {
		return map[string]wire.Value{
			"type": {Kind: "string", Str: "loadtest"},
			"tag":  {Kind: "string", Str: tag},
		}
	}
	var out []request
	for di, ds := range dss {
		out = append(out, request{
			kind: "mutate", dataset: di, spec: -1,
			body: mustJSON(wire.MutateRequest{
				Dataset:     ds.name,
				AddVertices: []wire.MutVertex{{Attrs: attrs("whybench-a")}, {Attrs: attrs("whybench-b")}},
				AddEdges:    []wire.MutEdge{{From: -1, To: -2, Type: "loadtest"}},
			}),
		})
	}
	return out
}

// repeatCorpus cycles the hot specs; with mutate set every mutateEvery-th
// request is a write, alternating datasets.
func repeatCorpus(dss []*dataset, mutate bool, warmup int) *corpus {
	c := &corpus{requests: hotSpecs(dss), repeat: true, warmup: warmup}
	if mutate {
		c.writes = writeRequests(dss)
	}
	return c
}

// maxOps bounds the operations stacked on one variant.
const maxOps = 6

// variants returns up to n connected, pairwise distinct modifications of q:
// one to three random operations of the Table 3.1 catalog each, values
// drawn from the data graph's domain catalog — the §3.2.5 random-candidate
// procedure. A draw that already exists gets further operations stacked on
// it (up to maxOps) until it is new: a large corpus exhausts the one- and
// two-operation variants of a three-element query early, and starting over
// would mostly redraw them. seen carries the keys already used on this
// dataset.
func variants(q *query.Query, dom *stats.Domain, n int, rng *rand.Rand, seen map[string]bool) []*query.Query {
	var out []*query.Query
	for attempts := 0; len(out) < n && attempts < n*30; attempts++ {
		cand := q.Clone()
		want, applied := 1+rng.Intn(3), 0
		for tries := 0; applied < want && tries < 4*maxOps; tries++ {
			if op := randomOp(cand, dom, rng); op == nil || op.Apply(cand) != nil {
				continue
			}
			applied++
			if applied < want || !cand.IsConnected() {
				continue
			}
			if key := cand.Key(); !seen[key] {
				seen[key] = true
				out = append(out, cand)
			} else if want < maxOps {
				want++
			}
		}
	}
	return out
}

func sortedAttrs(preds map[string]query.Predicate) []string {
	attrs := make([]string, 0, len(preds))
	for a := range preds {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return attrs
}

func pick[T any](rng *rand.Rand, xs []T) (x T, ok bool) {
	if len(xs) == 0 {
		return x, false
	}
	return xs[rng.Intn(len(xs))], true
}

// randomOp draws one modification that looks applicable to q. Every choice
// goes through rng over a sorted list, so the draw depends on the seed only.
func randomOp(q *query.Query, dom *stats.Domain, rng *rand.Rand) query.Op {
	vids, eids := q.VertexIDs(), q.EdgeIDs()
	vid := vids[rng.Intn(len(vids))]
	vpreds := q.Vertex(vid).Preds
	vtarget := func(attr string) query.Target {
		return query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr}
	}
	kind := ""
	if p, ok := vpreds["type"]; ok && p.Kind == query.Values && len(p.Vals) == 1 {
		kind = p.Vals[0].Str
	}
	switch rng.Intn(9) {
	case 0: // delete a vertex predicate
		if attr, ok := pick(rng, sortedAttrs(vpreds)); ok {
			return query.DeletePredicate{On: vtarget(attr)}
		}
	case 1: // extend a vertex predicate with a domain value
		if attr, ok := pick(rng, sortedAttrs(vpreds)); ok {
			if v, ok := pick(rng, dom.VertexValues[attr]); ok {
				return query.ExtendPredicate{On: vtarget(attr), Value: v}
			}
		}
	case 2: // shrink a multi-valued vertex predicate
		var multi []string
		for _, attr := range sortedAttrs(vpreds) {
			if p := vpreds[attr]; p.Kind == query.Values && len(p.Vals) > 1 {
				multi = append(multi, attr)
			}
		}
		if attr, ok := pick(rng, multi); ok {
			v, _ := pick(rng, vpreds[attr].Vals)
			return query.ShrinkPredicate{On: vtarget(attr), Value: v}
		}
	case 3: // widen or narrow a range
		var ranges []string
		for _, attr := range sortedAttrs(vpreds) {
			if vpreds[attr].Kind == query.Range {
				ranges = append(ranges, attr)
			}
		}
		if attr, ok := pick(rng, ranges); ok {
			if rng.Intn(2) == 0 {
				return query.WidenRange{On: vtarget(attr), Delta: float64(1 + rng.Intn(3))}
			}
			return query.NarrowRange{On: vtarget(attr), Delta: 1}
		}
	case 4: // insert a predicate on an attribute the entity kind has
		var free []string
		for _, attr := range dom.VertexAttrs(kind) {
			if _, has := vpreds[attr]; !has {
				free = append(free, attr)
			}
		}
		if attr, ok := pick(rng, free); ok {
			if v, ok := pick(rng, dom.VertexAttrValues(kind, attr)); ok {
				return query.InsertPredicate{On: vtarget(attr), Pred: query.In(v)}
			}
		}
	case 5: // edge predicate: delete or extend
		if eid, ok := pick(rng, eids); ok {
			if attr, ok := pick(rng, sortedAttrs(q.Edge(eid).Preds)); ok {
				t := query.Target{Kind: query.TargetEdge, ID: eid, Attr: attr}
				if rng.Intn(2) == 0 {
					return query.DeletePredicate{On: t}
				}
				if v, ok := pick(rng, dom.EdgeValues[attr]); ok {
					return query.ExtendPredicate{On: t, Value: v}
				}
			}
		}
	case 6: // edge direction and type
		if eid, ok := pick(rng, eids); ok {
			switch rng.Intn(3) {
			case 0:
				return query.DeleteDirection{Edge: eid}
			case 1:
				if t, ok := pick(rng, dom.EdgeTypes); ok {
					return query.AddType{Edge: eid, Type: t}
				}
			default:
				return query.DeleteType{Edge: eid}
			}
		}
	case 7: // topology: delete an edge (rule 1 drops what this disconnects)
		if len(eids) > 1 {
			return query.DeleteEdge{Edge: eids[rng.Intn(len(eids))]}
		}
	case 8: // topology: delete a leaf vertex
		if len(vids) > 2 && len(q.Incident(vid)) <= 1 {
			return query.DeleteVertex{Vertex: vid}
		}
	}
	return nil
}

// uniqueQueries generates about n distinct custom queries: variants of every
// built-in and of its failing variant on every dataset, interleaved so that
// any prefix of the sequence has the same mix as the whole.
func uniqueQueries(dss []*dataset, n int, seed int64) []request {
	type base struct {
		dataset int
		vs      []*query.Query
	}
	perBase := n/(8*len(dss)) + 1
	perDataset := make([][]base, len(dss))
	var wg sync.WaitGroup
	for di, ds := range dss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[string]bool)
			for bi, b := range ds.builtins {
				fq, err := ds.failing(b.Name)
				if err != nil {
					panic(fmt.Sprintf("whybench: %v", err))
				}
				for vi, q := range []*query.Query{b.Build(), fq} {
					rng := rand.New(rand.NewSource(seed*1000003 + int64(di*100+bi*2+vi)))
					perDataset[di] = append(perDataset[di], base{di, variants(q, ds.eng.Domain(), perBase, rng, seen)})
				}
			}
		}()
	}
	wg.Wait()
	var bases []base
	for _, bs := range perDataset {
		bases = append(bases, bs...)
	}
	out := make([]request, 0, n)
	for round := 0; len(out) < n; round++ {
		took := false
		for _, b := range bases {
			if round < len(b.vs) && len(out) < n {
				out = append(out, request{dataset: b.dataset, q: b.vs[round], spec: -1})
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// explainUniqueCorpus turns n distinct queries into why-queries. The bounds
// come from the harness's own capped count c (rule 4): c = 0 asks why-empty;
// a count that hit the cap asks why-so-many; anything between asks
// why-so-few or why-so-many at random, with bounds c violates.
func explainUniqueCorpus(dss []*dataset, n, warmup int, seed int64) *corpus {
	c := &corpus{requests: uniqueQueries(dss, n, seed), warmup: warmup}
	rng := rand.New(rand.NewSource(seed))
	for i := range c.requests {
		r := &c.requests[i]
		ds := dss[r.dataset]
		card := ds.eng.Matcher().Count(r.q, countCapUnique)
		switch {
		case card == 0:
			r.expected = metrics.AtLeastOne
		case card == countCapUnique:
			r.expected = metrics.Interval{Lower: 1, Upper: countCapUnique / (4 << rng.Intn(3))}
		case card >= 2 && rng.Intn(2) == 0:
			r.expected = metrics.Interval{Lower: 1, Upper: 1 + rng.Intn(card-1)}
		default:
			r.expected = metrics.Interval{Lower: card + 1 + rng.Intn(2*card+1)}
		}
		wq := wire.FromQuery(r.q)
		r.kind = "explain"
		r.body = mustJSON(wire.ExplainRequest{
			Dataset: ds.name, Query: &wq, Budget: explainBudget,
			Lower: r.expected.Lower, Upper: r.expected.Upper,
		})
	}
	return c
}

// matchUniqueCorpus alternates count and find over n distinct queries.
func matchUniqueCorpus(dss []*dataset, n, warmup int, seed int64) *corpus {
	c := &corpus{requests: uniqueQueries(dss, n, seed), warmup: warmup}
	for i := range c.requests {
		r := &c.requests[i]
		wq := wire.FromQuery(r.q)
		req := wire.MatchRequest{Dataset: dss[r.dataset].name, Query: &wq, CountCap: countCapUnique}
		if r.find = i%2 == 1; r.find {
			req = wire.MatchRequest{Dataset: dss[r.dataset].name, Query: &wq, Mode: "find", Limit: findLimit}
		}
		r.kind = "match"
		r.body = mustJSON(req)
	}
	return c
}
