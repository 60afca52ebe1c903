// Command whybench is the repository's benchmark: it builds cmd/whydbd, boots
// it as a child process, drives it over loopback HTTP with seeded traffic,
// checks every answer against its own engine, and prints end-to-end metrics
// (-trace 0) or per-layer metrics from a traced in-process replay
// (-trace 1). bench/README.md describes the workloads and every metric.
//
//	go run ./whybench -seed 1                 # from bench/: all workloads, both runs
//	bash bench/run.sh --workload explain_unique --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; everything for people goes to standard
// error. Linux only: CPU time comes from the processes' CPU clocks, peak
// memory from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"explain_unique", "explain_repeat", "match_unique", "repeat_mutate"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	addr     string
	out      string

	outDir string // bench/out: logs, corpus records, traces
	bin    string // the built whydbd
}

// scale is the daemon's -scale: 8 is 30 k vertices / 181 k edges on LDBC.
func (c *config) scale() float64 {
	if c.smoke {
		return 0.5
	}
	return 8
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line, plus what -out records
// around it for bench/compare.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     int               `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: explain_unique, explain_repeat, match_unique, repeat_mutate, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus seed: the same seed gives the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured pass")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced replay; unset: both, one after the other")
	flag.BoolVar(&cfg.smoke, "smoke", false, "scale 0.5 and ~300 requests per workload: checks the harness, measures nothing")
	flag.StringVar(&cfg.addr, "addr", "", "daemon listen address (default: a free loopback port)")
	flag.StringVar(&cfg.out, "out", "", "append every run's result, one JSON object per line, to this file (input of bench/compare)")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: whybench [-workload name|all] [-seed n] [-seconds n] [-trace 0|1] [-smoke] [-out file]")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "whybench: unknown workload %q (want one of %v or all)\n", cfg.workload, workloadNames)
		os.Exit(2)
	}
	// Two clients, two threads: the load generator may not use more of the box
	// than the daemon it drives, and the in-process replay mirrors a daemon
	// that runs under GOMAXPROCS=2.
	runtime.GOMAXPROCS(clients)
	// The harness holds two data graphs full of maps, and corpus generation
	// allocates a clone per query: with the default GC target most of the
	// generation time is marking the graphs over and over.
	debug.SetGCPercent(400)
	sup := newSupervisor()
	code := 0
	func() {
		// Deferred so that a panic anywhere below still kills the daemons.
		defer sup.killAll()
		if err := cfg.prepare(); err != nil {
			fmt.Fprintln(os.Stderr, "whybench:", err)
			code = 1
			return
		}
		for _, name := range names {
			for t := 0; t <= 1; t++ {
				if *trace >= 0 && t != *trace {
					continue
				}
				run := cfg
				run.workload, run.trace = name, t == 1
				res, err := run.run(sup)
				if err != nil {
					fmt.Fprintf(os.Stderr, "whybench: %s: %v\n", name, err)
					code = 1
					return
				}
				if err := run.emit(res); err != nil {
					fmt.Fprintln(os.Stderr, "whybench:", err)
					code = 1
					return
				}
			}
		}
	}()
	os.Exit(code)
}

// prepare locates the checkout and builds the daemon from its source. In a
// directory that holds only the benchmark there is no cmd/whydbd: that is an
// error, never a silent fallback to some other binary.
func (c *config) prepare() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
	if _, err := os.Stat(filepath.Join(dir, "cmd", "whydbd")); err != nil {
		return fmt.Errorf("%s holds no cmd/whydbd to build: %w", dir, err)
	}
	c.outDir = filepath.Join(dir, "bench", "out")
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	c.bin = filepath.Join(dir, ".bench_build", "whydbd")
	build := exec.Command("go", "build", "-o", c.bin, "./cmd/whydbd")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/whydbd: %v\n%s", err, out)
	}
	return nil
}

// emit prints the run for people on standard error and for the driver as the
// last line of standard output, and appends it to -out.
func (c *config) emit(res *result) error {
	names := slices.Sorted(maps.Keys(res.Metrics))
	fmt.Fprintf(os.Stderr, "\n%s seed %d trace %v: correct %v, attempted %d, failed %d\n",
		c.workload, c.seed, c.trace, res.Correct, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if c.out == "" {
		return nil
	}
	res.Workload, res.Seed = c.workload, c.seed
	if c.trace {
		res.Trace = 1
	}
	rec, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(c.out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// freshLog returns the path of the daemon's log for this workload, emptied:
// every boot of a run appends to it.
func (c *config) freshLog() string {
	path := filepath.Join(c.outDir, "whydbd-"+c.workload+".log")
	os.Remove(path)
	return path
}

// writeJSON records v under bench/out.
func (c *config) writeJSON(name string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.outDir, name), append(blob, '\n'), 0o644)
}

// sizing is how much traffic a workload generates, and what the load
// generator costs on it: warm-up requests sent before measuring; for the
// unique corpora the request rate the corpus is sized for — about 1.4 times
// the rate a quiet 2-core reference box reaches, so the pass ends on the
// clock, not on an exhausted corpus; and clientUs, the CPU time in µs the
// harness itself spends per request on that box (see boxSpeed).
var sizing = map[string]struct {
	warmup, rate int
	clientUs     float64
}{
	"explain_unique": {warmup: 500, rate: 500, clientUs: 95},
	"explain_repeat": {warmup: 1600, clientUs: 72},
	"match_unique":   {warmup: 8000, rate: 7600, clientUs: 43},
	"repeat_mutate":  {warmup: 1600, clientUs: 92},
}

// boxSpeed says how much slower than the reference box this box ran during a
// pass: the harness's own CPU time per request over sizing's clientUs.
//
// The sandbox this benchmark runs in is a slice of a shared host, and its
// speed moves by a factor of up to 1.8 within minutes — for everything at
// once: the daemon's CPU time per request, its latencies, and the CPU time of
// the load generator. The load generator does the same small piece of work
// for every request (one write, one read, a scan of the answer), whatever
// the daemon under test does. Over ten runs each of the four workloads, in a
// stretch where the daemon's CPU time per request spread by 19 to 35 %, that
// time divided by the load generator's spread by 2.5 to 9.6 %. So every
// timing is reported divided by this factor, as the time it would have taken
// on the reference box; the measured values and the factor are printed
// beside them. A change to the daemon does not move the factor — that is
// what makes it a clock and not a metric. bench/README.md has the
// measurements, and what the factor does not correct.
func (c *config) boxSpeed(p *passed) float64 {
	return us(p.clientCPU) / float64(len(p.samples)) / sizing[c.workload].clientUs
}

// smokeRequests is the length of a smoke pass.
const smokeRequests = 300

// buildCorpus generates the workload's requests from the seed.
func (c *config) buildCorpus(dss []*dataset) *corpus {
	sz := sizing[c.workload]
	n := sz.warmup + sz.rate*c.seconds
	if c.trace {
		n = sz.warmup + int(float64(sz.rate*c.seconds)*tracedPassShare)
	}
	if c.smoke {
		sz.warmup, n = 32, 32+smokeRequests
	}
	var cp *corpus
	switch c.workload {
	case "explain_unique":
		cp = explainUniqueCorpus(dss, n, sz.warmup, c.seed)
	case "match_unique":
		cp = matchUniqueCorpus(dss, n, sz.warmup, c.seed)
	default:
		cp = repeatCorpus(dss, c.workload == "repeat_mutate", sz.warmup)
	}
	cp.finish(c.workload, c.seed)
	return cp
}

// run executes one workload once.
func (c *config) run(sup *supervisor) (*result, error) {
	began := time.Now()
	gens := make(map[string]time.Duration)
	var dss []*dataset
	for _, name := range []string{"ldbc", "dbpedia"} {
		t0 := time.Now()
		g := generateGraph(name, c.scale())
		gens[name] = time.Since(t0)
		dss = append(dss, newDataset(name, g))
	}
	cp := c.buildCorpus(dss)
	if err := c.writeJSON("corpus-"+c.workload+".json", cp.info); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: corpus of %d requests (%d distinct keys, %v) sha256 %.16s…, generated in %.1f s\n",
		c.workload, cp.info.Size, cp.info.DistinctKeys, cp.info.Problems, cp.info.SHA256, time.Since(began).Seconds())
	if c.trace {
		return c.runTraced(sup, dss, cp, gens)
	}
	return c.runEndToEnd(sup, dss, cp)
}

// boots is how often the untraced run starts the daemon: setup_s is the
// median, the last boot serves. Single boots ranged from 0.18 to 0.36 s.
const boots = 5

// runEndToEnd is the untraced run: the boots, warm-up, the measured pass, the
// checks.
func (c *config) runEndToEnd(sup *supervisor, dss []*dataset, cp *corpus) (*result, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	logPath := c.freshLog()
	var d *daemon
	var setups []float64
	for i := 0; i < boots && (i == 0 || !c.smoke); i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = sup.start(c.bin, c.addr, c.scale(), logPath, client); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()

	ck := newChecker(dss, cp)
	warm, err := pass(d.base, cp, 0, cp.warmup, 0)
	if err != nil {
		return nil, err
	}
	limit, length := 0, time.Duration(c.seconds)*time.Second
	if c.smoke {
		limit, length = smokeRequests, 0
	}
	cpu0, err := cpuClock(d.pid())
	if err != nil {
		return nil, err
	}
	measured, err := pass(d.base, cp, len(warm.samples), limit, length)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuClock(d.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	if !cp.repeat && len(warm.samples)+len(measured.samples) == len(cp.requests) {
		fmt.Fprintf(os.Stderr, "%s: corpus ran out after %.1f s: the pass is shorter than -seconds\n", c.workload, measured.wall.Seconds())
	}
	st, err := fetchStats(client, d.base)
	if err != nil {
		return nil, err
	}
	d.stop()
	checkBegan := time.Now()
	ck.check(warm.samples)
	ck.check(measured.samples)
	ck.checkStats(st)
	fmt.Fprintf(os.Stderr, "%s: answers checked in %.1f s\n", c.workload, time.Since(checkBegan).Seconds())

	var reads, writes []float64
	ok := 0
	for _, s := range measured.samples {
		switch {
		case s.status != 200:
		case s.req.kind == "mutate":
			writes = append(writes, ms(s.lat))
			ok++
		default:
			reads = append(reads, ms(s.lat))
			ok++
		}
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("no request succeeded; first failures: %v", ck.notes)
	}
	rd, wr := summarize(reads), summarize(writes)
	// What was measured, and the same on the reference box.
	speed := c.boxSpeed(measured)
	timings := []struct {
		name, unit string
		measured   float64
		perSpeed   float64 // +1: a time, divided by speed; -1: a rate, multiplied
	}{
		{"p50_ms", "ms", rd.P50, 1},
		{"p99_ms", "ms", rd.P99, 1},
		{"throughput_rps", "1/s", float64(ok) / measured.wall.Seconds(), -1},
		{"cpu_ms_per_req", "ms", (cpu1 - cpu0) * 1000 / float64(ok), 1},
		{"setup_s", "s", summarize(setups).P50, 1},
	}
	res := &result{
		Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed,
		Metrics: map[string]metric{"rss_peak_mb": {rss, "MB"}},
	}
	fmt.Fprintf(os.Stderr, "%s: %d reads (p99 supported: %v), %d writes (median %.1f ms), %d requests in a %.1f s pass, error rate %d/%d\n",
		c.workload, rd.N, rd.TailOK, wr.N, wr.P50, len(measured.samples), measured.wall.Seconds(), ck.failed, ck.attempted)
	fmt.Fprintf(os.Stderr, "%s: the load generator took %.1f µs of CPU per request: this box ran at 1/%.3f of the reference box\n",
		c.workload, speed*sizing[c.workload].clientUs, speed)
	for _, t := range timings {
		res.Metrics[t.name] = metric{t.measured * math.Pow(speed, -t.perSpeed), t.unit}
		fmt.Fprintf(os.Stderr, "  %-16s measured %12.4f %s\n", t.name, t.measured, t.unit)
	}
	for _, note := range ck.notes {
		fmt.Fprintln(os.Stderr, "  FAIL", note)
	}
	return res, nil
}
