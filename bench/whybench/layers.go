package main

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/snapshot"
	"repro/internal/wire"
)

// The traced run splits -seconds between a daemon pass over HTTP (the
// counters of /v1/stats, the loopback latencies, the stream, batch and write
// probes) and the in-process replay of the same corpus prefix; the stand-alone
// probes that follow take about two seconds more.
const (
	tracedPassShare   = 0.35
	tracedReplayShare = 0.45
	// replayWarmShare of the replay's time is warm-up: replayed, traced,
	// written out, but left out of every number.
	replayWarmShare = 0.1
	// probeQueries bounds the queries the stand-alone probes time.
	probeQueries = 200
	// probeRebuilds is how often the write path and the snapshot codec are
	// timed outside the replay.
	probeRebuilds = 3
)

// streamProbe posts one hot spec to /v1/explain/stream and returns the time
// to the first improvement event and to the done event.
func streamProbe(client *http.Client, base string, r *request) (ttfe, done time.Duration, err error) {
	began := time.Now()
	resp, err := client.Post(base+"/v1/explain/stream", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "event: improvement" && ttfe == 0:
			ttfe = time.Since(began)
		case line == "event: done":
			done = time.Since(began)
		case line == "event: error":
			return 0, 0, fmt.Errorf("stream of hot spec %d ended in an error event", r.spec)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if done == 0 {
		return 0, 0, fmt.Errorf("stream of hot spec %d (status %d) carried no done event", r.spec, resp.StatusCode)
	}
	if ttfe == 0 {
		ttfe = done // a search that never improves says so only at the end
	}
	return ttfe, done, nil
}

// batchSize and the duplicate share are whyload's batch mix: eight items,
// half of them copies of the first.
const batchSize = 8

// batchProbe posts one batch whose first half repeats specs[i] and returns
// the time per item.
func batchProbe(c *conn, specs []request, i int) (time.Duration, error) {
	var items []string
	for j := 0; j < batchSize; j++ {
		k := i
		if j >= batchSize/2 {
			k = i + j
		}
		items = append(items, string(specs[k%len(specs)].body))
	}
	body := []byte(`{"items":[` + strings.Join(items, ",") + `]}`)
	s := c.send(&request{kind: "batch", body: body}, i, nil)
	if s.status != http.StatusOK || bytes.Contains(s.body, []byte(`"error":`)) {
		return 0, fmt.Errorf("batch probe %d: status %d: %.200s", i, s.status, s.body)
	}
	return s.lat / batchSize, nil
}

// standaloneProbes times the layers no request isolates: key derivation, plan
// compilation with the plan cache out of the way, execution of a compiled
// plan, the cardinality estimate, the incremental key of a modified query,
// the write path, and the snapshot codec. They run on engine A after the
// replay, so they disturb nothing.
func (rp *replayer) standaloneProbes(reqs []*request, seed int64, dir string) error {
	tr := rp.tr
	rng := rand.New(rand.NewSource(seed))
	for _, r := range reqs {
		ls := rp.ls[r.dataset]
		m, q := ls.a.Matcher(), r.q
		var key string
		tr.time("query.key", -1, -1, func() { key = q.Key() })
		if op := randomOp(q, ls.a.Domain(), rng); op != nil {
			tr.time("query.applykeyed", -1, -1, func() { query.ApplyKeyed(q, key, op) })
		}
		tr.time("stats.estimate", -1, -1, func() { ls.a.Stats().EstimateCardinality(q) })
		plan := m.Compile(q) // the first compile fills the candidate cache
		tr.time("match.compile", -1, -1, func() { plan = m.Compile(q) })
		tr.time("match.count", -1, -1, func() { plan.Count(ls.ctx, countCapUnique) })
	}
	path := filepath.Join(dir, "probe.snap")
	defer os.Remove(path)
	for i := 0; i < probeRebuilds; i++ {
		rp.rebuild(0, -1, -1, false)
		g := rp.ls[0].g
		var err error
		tr.time("snapshot.pack", -1, -1, func() { _, err = snapshot.Pack(g) })
		if err == nil {
			_, err = snapshot.WriteFile(path, g)
		}
		for _, load := range []struct {
			name string
			mode snapshot.Mode
		}{{"snapshot.load_mmap", snapshot.ModeMmap}, {"snapshot.load_read", snapshot.ModeRead}} {
			if err != nil {
				break
			}
			var l *snapshot.Loaded
			tr.time(load.name, -1, -1, func() { l, err = snapshot.ReadFile(path, load.mode) })
			if err == nil {
				err = l.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
	}
	return nil
}

// tally is what /v1/stats says one dataset's engine did during the pass.
type tally struct {
	plan, count, cand, stats [2]int // hits, misses
	shared                   int64
	exec, dedup, spec, waste int64
	explains                 int
}

func (t *tally) add(after, before wire.DatasetStats, explains int) {
	cache := func(dst *[2]int, a, b wire.CacheStats) {
		dst[0] += a.Hits - b.Hits
		dst[1] += a.Misses - b.Misses
	}
	cache(&t.plan, after.PlanCache, before.PlanCache)
	cache(&t.count, after.CountCache, before.CountCache)
	cache(&t.cand, after.CandCache, before.CandCache)
	cache(&t.stats, after.StatsCache, before.StatsCache)
	t.shared += after.Coalescing.Shared - before.Coalescing.Shared
	for family, k := range after.Kernel {
		b := before.Kernel[family]
		t.exec += k.Executions - b.Executions
		t.dedup += k.DedupHits - b.DedupHits
		t.spec += k.Speculated - b.Speculated
		t.waste += k.SpecWaste - b.SpecWaste
	}
	t.explains += explains
}

// tallyPass books each dataset's counters over the pass. A write replaces
// the engine and with it every counter, so a dataset written during the pass
// contributes what its last engine counted, over the explains sent after
// that write; the others contribute after − before.
func tallyPass(dss []*dataset, before, after *wire.StatsResponse, measured []sample) tally {
	var t tally
	for di, ds := range dss {
		lastWrite, explains := -1, 0
		for _, s := range measured {
			if s.req.dataset == di && s.req.kind == "mutate" && s.idx > lastWrite {
				lastWrite = s.idx
			}
		}
		for _, s := range measured {
			if s.req.dataset == di && s.req.kind == "explain" && s.idx > lastWrite {
				explains++
			}
		}
		b := before.Datasets[ds.name]
		if lastWrite >= 0 {
			b = wire.DatasetStats{}
		}
		t.add(after.Datasets[ds.name], b, explains)
	}
	return t
}

// ratio is num/den, and 0 where nothing was counted.
func ratio[N int | int64 | time.Duration](num, den N) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// daemonSide is what the traced run learns over HTTP.
type daemonSide struct {
	warm, measured []sample
	// clientCPU is the harness's own CPU time over the measured pass.
	clientCPU time.Duration
	tally     tally
	// timings holds the probes' round trips per layer name, as spans would.
	timings map[string][]time.Duration
}

// daemonPass boots a daemon, drives warm-up and a pass with /v1/stats read
// around it, then probes the daemon: the hot specs over SSE and in batches,
// and (where the pass had no writes) a few writes.
func (c *config) daemonPass(sup *supervisor, dss []*dataset, cp *corpus, specs []request, ck *checker) (*daemonSide, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	d, _, err := sup.start(c.bin, c.addr, c.scale(), c.freshLog(), client)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	limit, length := 0, time.Duration(tracedPassShare*float64(c.seconds)*float64(time.Second))
	if c.smoke {
		limit, length = smokeRequests, 0
	}
	ds := &daemonSide{timings: map[string][]time.Duration{}}
	warm, err := pass(d.base, cp, 0, cp.warmup, 0)
	if err != nil {
		return nil, err
	}
	before, err := fetchStats(client, d.base)
	if err != nil {
		return nil, err
	}
	measured, err := pass(d.base, cp, len(warm.samples), limit, length)
	if err != nil {
		return nil, err
	}
	ds.warm, ds.measured = warm.samples, measured.samples
	ds.clientCPU = measured.clientCPU
	after, err := fetchStats(client, d.base)
	if err != nil {
		return nil, err
	}
	ds.tally = tallyPass(dss, before, after, ds.measured)
	probe, err := dial(d.base)
	if err != nil {
		return nil, err
	}
	defer probe.close()
	for i := range specs {
		ttfe, done, err := streamProbe(client, d.base, &specs[i])
		ck.assert(err == nil, "%v", err)
		ds.timings["server.stream_ttfe"] = append(ds.timings["server.stream_ttfe"], ttfe)
		ds.timings["server.stream_done"] = append(ds.timings["server.stream_done"], done)
		item, err := batchProbe(probe, specs, i)
		ck.assert(err == nil, "%v", err)
		ds.timings["server.batch_item"] = append(ds.timings["server.batch_item"], item)
	}
	var tail []sample
	if len(cp.writes) == 0 {
		writes := writeRequests(dss)
		for i := 0; i < probeRebuilds*len(writes); i++ {
			tail = append(tail, probe.send(&writes[i%len(writes)], i, nil))
		}
	}
	for _, s := range append(ds.measured, tail...) {
		if s.req.kind == "mutate" && s.status == http.StatusOK {
			ds.timings["server.mutate"] = append(ds.timings["server.mutate"], s.lat)
		}
	}
	final, err := fetchStats(client, d.base)
	if err != nil {
		return nil, err
	}
	d.stop()
	ck.check(ds.warm)
	ck.check(ds.measured)
	ck.check(tail)
	ck.checkStats(final)
	return ds, nil
}

// replayCorpus replays, in process and traced, what the daemon saw, from the
// first request on and no further: the loopback latencies of the same
// positions are what the HTTP overhead is taken against. Warm-up is the first
// tenth of the time or of the requests, whichever ends first. It returns the
// number of requests replayed and the position of the first that counts.
func (c *config) replayCorpus(rp *replayer, cp *corpus, specs []request, sent int) (replayed, from int) {
	tr := rp.tr
	length := time.Duration(tracedReplayShare * float64(c.seconds) * float64(time.Second))
	if c.smoke {
		length = time.Second
	}
	began := time.Now()
	for ; time.Since(began) < length && replayed < sent; replayed++ {
		tr.warm = time.Since(began) < time.Duration(replayWarmShare*float64(length)) && float64(replayed) < replayWarmShare*float64(sent)
		if tr.warm {
			from = replayed + 1
		}
		rp.replay(cp.at(replayed), replayed)
	}
	if c.workload == "match_unique" {
		// No explain in the corpus: take the explain layers from the hot
		// specs, so that every layer has a number on every workload. Two
		// rounds, the first one warm-up: engine set-up the match requests
		// never touched (statistics, domain values) is paid there.
		for round := 0; round < 2; round++ {
			tr.warm = round == 0
			for i := range specs {
				rp.replay(&specs[i], replayed+i)
			}
		}
	}
	tr.warm = false
	return replayed, from
}

// runTraced is the -trace 1 run: daemon pass and probes, in-process replay,
// stand-alone probes; then every per-layer metric.
func (c *config) runTraced(sup *supervisor, dss []*dataset, cp *corpus, gens map[string]time.Duration) (*result, error) {
	ck := newChecker(dss, cp)
	specs := hotSpecs(dss)
	ds, err := c.daemonPass(sup, dss, cp, specs, ck)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	rp := newReplayer(tr, dss)
	replayed, from := c.replayCorpus(rp, cp, specs, len(ds.warm)+len(ds.measured))
	var probeReqs []*request
	for i, step := from, (replayed-from)/probeQueries+1; i < replayed; i += step {
		if r := cp.at(i); r.q != nil {
			probeReqs = append(probeReqs, r)
		}
	}
	if err := rp.standaloneProbes(probeReqs, c.seed, c.outDir); err != nil {
		return nil, err
	}
	ck.attempted += replayed
	ck.failed += rp.failed
	ck.notes = append(ck.notes, rp.notes...)
	if err := c.writeJSON("trace-"+c.workload+".json", tr.spans); err != nil {
		return nil, err
	}

	// Round trips over HTTP and in process, of the same corpus positions.
	var loopback, handles []time.Duration
	for _, s := range append(ds.warm, ds.measured...) {
		if s.idx >= from && s.idx < replayed && s.req.kind != "mutate" {
			loopback = append(loopback, s.lat)
		}
	}
	for i, s := range tr.spans {
		if s.Name == "server.handle" && !s.Warm && s.Request < replayed && cp.at(s.Request).kind != "mutate" {
			handles = append(handles, tr.dur(i))
		}
	}
	if len(handles) == 0 || len(loopback) == 0 {
		return nil, fmt.Errorf("nothing was replayed; first failures: %v", ck.notes)
	}
	roundTrip := timing(loopback, us).P50
	spans := tr.byName()
	maps.Copy(spans, ds.timings)

	res := &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metric{}}
	table := map[string]dist{}
	put := func(name, unit string, d dist) {
		table[name+"_"+unit] = d
		res.Metrics[name+"_"+unit] = metric{d.P50, unit}
	}
	for _, name := range []string{
		"wire.decode", "wire.encode", "match.count_original", "match.compile", "match.count", "match.find",
		"query.key", "query.applykeyed", "stats.estimate", "metrics.syntactic", "metrics.resultdist",
	} {
		put(name, "us", timing(spans[name], us))
	}
	for _, name := range []string{
		"server.stream_ttfe", "server.stream_done", "server.batch_item", "server.mutate", "core.explain",
		"mcs.cold", "mcs.warm", "relax.cold", "relax.warm", "modtree.cold", "modtree.warm",
		"graph.clone", "graph.freeze", "core.newengine", "snapshot.pack", "snapshot.load_mmap", "snapshot.load_read",
	} {
		put(name, "ms", timing(spans[name], ms))
	}
	var handleSelf, coreSelf []float64
	var sum booking
	for _, bk := range rp.booked {
		if bk.warm {
			continue
		}
		handleSelf = append(handleSelf, us(bk.handle-bk.children))
		sum.wall, sum.handle = sum.wall+bk.wall, sum.handle+bk.handle
		if bk.explain > 0 {
			coreSelf = append(coreSelf, ms(bk.explain-bk.stages))
			sum.explain, sum.stages = sum.explain+bk.explain, sum.stages+bk.stages
			sum.match, sum.scoring = sum.match+bk.match, sum.scoring+bk.scoring
		}
	}
	put("server.handle_self", "us", summarize(handleSelf))
	put("core.self", "ms", summarize(coreSelf))
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	t := ds.tally
	set("server.http_overhead_us", "us", roundTrip-timing(handles, us).P50)
	set("loadgen.client_cpu_us", "us", us(ds.clientCPU)/float64(len(ds.measured)))
	set("datagen.ldbc_ms", "ms", ms(gens["ldbc"]))
	set("datagen.dbpedia_ms", "ms", ms(gens["dbpedia"]))
	set("match.plancache_hit_ratio", "ratio", ratio(t.plan[0], t.plan[0]+t.plan[1]))
	set("match.countcache_hit_ratio", "ratio", ratio(t.count[0], t.count[0]+t.count[1]))
	set("match.candcache_hit_ratio", "ratio", ratio(t.cand[0], t.cand[0]+t.cand[1]))
	set("stats.cache_hit_ratio", "ratio", ratio(t.stats[0], t.stats[0]+t.stats[1]))
	set("match.coalesce_shared", "count", float64(t.shared))
	set("search.executions_per_explain", "count", ratio(t.exec, int64(t.explains)))
	set("search.dedup_hits_per_explain", "count", ratio(t.dedup, int64(t.explains)))
	set("search.spec_waste_ratio", "ratio", ratio(t.waste, t.spec))
	set("trace.coverage", "ratio", ratio(sum.stages, sum.explain))
	set("trace.overhead_ratio", "ratio", ratio(sum.wall, sum.handle))

	// Where the time goes, as shares: the numbers the workloads are meant to
	// pull apart (bench/README.md says which way).
	shares := map[string]float64{
		"core.explain: match (count, find, cold-warm)":  ratio(sum.match, sum.explain),
		"core.explain: strategies warm (kernel, stats)": ratio(sum.stages-sum.match-sum.scoring, sum.explain),
		"core.explain: metrics (scoring)":               ratio(sum.scoring, sum.explain),
		"core.explain: self":                            ratio(sum.explain-sum.stages, sum.explain),
		"round trip: http":                              res.Metrics["server.http_overhead_us"].Value / roundTrip,
		"round trip: server self + wire":                (res.Metrics["server.handle_self_us"].Value + res.Metrics["wire.decode_us"].Value + res.Metrics["wire.encode_us"].Value) / roundTrip,
	}
	if err := c.writeJSON("layers-"+c.workload+".json", map[string]any{"timings": table, "shares": shares, "metrics": res.Metrics}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: traced %d requests in process (first %d are warm-up), %d over HTTP; %d spans in %s\n",
		c.workload, replayed, from, len(ds.measured), len(tr.spans), filepath.Join("bench", "out", "trace-"+c.workload+".json"))
	fmt.Fprintf(os.Stderr, "  %-28s %12s %12s %8s\n", "layer timing", "p50", "p99", "n")
	for _, name := range slices.Sorted(maps.Keys(table)) {
		d := table[name]
		tail := ""
		if !d.TailOK {
			tail = " (p99: fewer than 10 samples beyond)"
		}
		fmt.Fprintf(os.Stderr, "  %-28s %12.3f %12.3f %8d%s\n", name, d.P50, d.P99, d.N, tail)
	}
	for _, name := range slices.Sorted(maps.Keys(shares)) {
		fmt.Fprintf(os.Stderr, "  share of %-46s %5.1f %%\n", name, 100*shares[name])
	}
	for _, note := range ck.notes {
		fmt.Fprintln(os.Stderr, "  FAIL", note)
	}
	return res, nil
}
