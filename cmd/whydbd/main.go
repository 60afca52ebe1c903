// Command whydbd is the long-running why-query daemon: it loads one or more
// built-in datasets at startup, wraps each in a concurrency-safe core.Engine,
// and serves the HTTP/JSON API of internal/server until terminated.
//
// Usage:
//
//	whydbd -addr :8080 -datasets ldbc,dbpedia
//	whydbd -addr 127.0.0.1:8091 -datasets ldbc -scale 0.5 -workers 4
//	whydbd -addr :8080 -snapshot snaps/                               # boot from whydb pack output
//	whydbd -addr :8080 -inject 'seed=42,latency=0.1:5ms,error=0.05'   # chaos drills
//
// Endpoints: POST /v1/explain, POST /v1/explain/stream (SSE),
// POST /v1/match, GET /v1/datasets, GET /v1/stats, GET /healthz,
// GET /readyz. Every v1 response is the unified {requestId, data|error}
// envelope. See the README's "API v1 reference" and "Operations & resilience"
// sections for request bodies, error codes, brownout states, and
// fault-injection flags.
//
// The listener opens before dataset generation starts: /healthz answers
// immediately (the process is alive) while /readyz answers 503 until every
// dataset is loaded — load balancers route on readiness.
//
// SIGINT/SIGTERM trigger a graceful drain: /readyz flips to 503, -drain-delay
// gives load balancers time to stop routing, then in-flight requests get
// -shutdown-grace to finish; halfway through the grace their contexts are
// cancelled (which stops the explanation searches within one candidate
// execution and answers 503 + Retry-After), and at the deadline remaining
// connections are closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// options is everything the daemon's flags set.
type options struct {
	addr, datasets                     string
	scale                              float64
	workers                            int
	grace, drainDelay                  time.Duration
	queueCap                           int
	maxQueueWait                       time.Duration
	degradeAt, shedAt                  float64
	latencyBudget, enterHold, exitHold time.Duration
	inject                             string
	shards                             int
	peers, snapDir                     string
}

// defineFlags declares the daemon's whole flag surface on fs (TestFlagSurface
// holds it to a golden list, and to what the benchmark and CI pass).
func defineFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.datasets, "datasets", "ldbc,dbpedia", "comma-separated datasets to load (ldbc, dbpedia)")
	fs.Float64Var(&o.scale, "scale", 1.0, "dataset size factor (1.0 = the experiment-suite defaults)")
	fs.IntVar(&o.workers, "workers", 0, "explanation-search workers per engine (0 = GOMAXPROCS)")
	fs.DurationVar(&o.grace, "shutdown-grace", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	fs.DurationVar(&o.drainDelay, "drain-delay", 0, "pause between flipping /readyz and starting shutdown (LB de-routing time)")
	fs.IntVar(&o.queueCap, "queue-cap", 0, "admission queue bound per dataset (0 = 4x the dataset's execution slots)")
	fs.DurationVar(&o.maxQueueWait, "max-queue-wait", 5*time.Second, "max time a request may wait for an execution slot before 504")
	fs.Float64Var(&o.degradeAt, "degrade-at", 0.5, "pressure at which the brownout controller degrades explains")
	fs.Float64Var(&o.shedAt, "shed-at", 0.9, "pressure at which the brownout controller sheds requests (429)")
	fs.DurationVar(&o.latencyBudget, "latency-budget", 500*time.Millisecond, "latency EWMA mapping to pressure 1.0")
	fs.DurationVar(&o.enterHold, "brownout-enter-hold", 250*time.Millisecond, "how long pressure must hold above a threshold before stepping up")
	fs.DurationVar(&o.exitHold, "brownout-exit-hold", 2*time.Second, "how long pressure must hold below a threshold before stepping down")
	fs.StringVar(&o.inject, "inject", "", "fault-injection spec, e.g. 'seed=42,latency=0.1:5ms,error=0.05,cancel=0.03:4,starve=0.02:20ms,rpc-error=0.1' (off by default)")
	fs.IntVar(&o.shards, "shards", 0, "split each dataset's counting across N in-process shards (0 = unsharded)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated peer base URLs for HTTP scatter-gather counting (e.g. 'http://h1:8080,http://h2:8080'); mutually exclusive with -shards")
	fs.StringVar(&o.snapDir, "snapshot", "", "load each dataset from <dir>/<name>.snap (whydb pack output) instead of generating it; -scale is ignored")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	// Validate dataset names before opening the listener: a typo should be
	// an immediate exit 2, not a daemon that never becomes ready.
	var names []string
	for _, name := range strings.Split(o.datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name != "ldbc" && name != "dbpedia" {
			fmt.Fprintf(os.Stderr, "unknown dataset %q (want ldbc or dbpedia)\n", name)
			os.Exit(2)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "no datasets loaded")
		os.Exit(2)
	}
	var peerURLs []string
	if o.peers != "" {
		if o.shards > 0 {
			fmt.Fprintln(os.Stderr, "-shards and -peers are mutually exclusive")
			os.Exit(2)
		}
		for _, u := range strings.Split(o.peers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				fmt.Fprintf(os.Stderr, "peer %q: want an http(s) base URL\n", u)
				os.Exit(2)
			}
			peerURLs = append(peerURLs, strings.TrimSuffix(u, "/"))
		}
		if len(peerURLs) < 2 {
			fmt.Fprintln(os.Stderr, "-peers wants at least two peer URLs")
			os.Exit(2)
		}
	}
	if o.shards < 0 {
		fmt.Fprintln(os.Stderr, "-shards must be >= 0")
		os.Exit(2)
	}
	cfg := server.Config{
		QueueCap:     o.queueCap,
		MaxQueueWait: o.maxQueueWait,
		Resilience: resilience.Config{
			DegradeAt:     o.degradeAt,
			ShedAt:        o.shedAt,
			LatencyBudget: o.latencyBudget,
			EnterHold:     o.enterHold,
			ExitHold:      o.exitHold,
		},
	}
	if o.inject != "" {
		icfg, err := faultinject.ParseSpec(o.inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Injector = faultinject.New(icfg)
		log.Printf("fault injection armed: %+v", icfg)
	}
	srv := server.New(cfg)

	// Serve while loading: the listener opens first so liveness and
	// readiness are observable during dataset generation.
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("whydbd listening on %s (not ready: loading %s)", o.addr, strings.Join(names, ","))
		errCh <- httpSrv.ListenAndServe()
	}()

	// Load datasets concurrently — generation/loading dominates startup, and
	// the datasets are independent. /readyz names which datasets are still
	// loading, so an operator watching readiness sees progress, not just
	// "loading".
	loading := newLoadTracker(srv, names)
	loadStart := time.Now()
	// Loading allocates almost nothing it does not keep — the graph, its
	// index, the packed adjacency — so a collection during it only re-marks
	// a live heap that has doubled since the last one (at -scale 8: six
	// cycles, a quarter of the time to ready). The collector is off until
	// the last dataset is in; /readyz keeps traffic away for as long.
	gcPercent := debug.SetGCPercent(-1)
	for _, name := range names {
		go func(name string) {
			start := time.Now()
			var eng *core.Engine
			var source string
			if o.snapDir != "" {
				path := filepath.Join(o.snapDir, name+".snap")
				loaded, err := snapshot.ReadFile(path, snapshot.ModeAuto)
				if err != nil {
					log.Fatalf("loading snapshot %s: %v", path, err)
				}
				eng = core.NewEngine(loaded.Graph)
				source = "snapshot:" + filepath.Base(path)
				log.Printf("snapshot %s: %d bytes, checksum %08x, mapped=%v", path, loaded.Manifest.Bytes, loaded.Manifest.Checksum, loaded.Manifest.Mapped)
			} else {
				eng = core.NewEngine(generate(name, o.scale))
				source = "datagen"
			}
			eng.SetWorkers(o.workers)
			switch name {
			case "ldbc":
				srv.AddDataset(name, eng, workload.LDBCQueries(), workload.FailingVariant)
			case "dbpedia":
				srv.AddDataset(name, eng, workload.DBpediaQueries(), workload.DBpediaFailingVariant)
			}
			srv.SetDatasetSource(name, source)
			logLoaded(name, eng, start)
			if err := shardDataset(srv, name, eng, o.shards, peerURLs); err != nil {
				log.Fatalf("sharding %s: %v", name, err)
			}
			if loading.done(name) {
				debug.SetGCPercent(gcPercent)
				srv.SetReady()
				log.Printf("whydbd ready: %d datasets (%.2fs)", len(names), time.Since(loadStart).Seconds())
			}
		}(name)
	}

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		// Drain sequence: stop routing (readyz 503), wait for the LB, then
		// shut down with the grace period — cancelling in-flight searches at
		// the halfway mark so they answer 503 instead of being cut off.
		srv.BeginDrain()
		log.Printf("shutdown signal received: draining (delay %v, grace %v)", o.drainDelay, o.grace)
		if o.drainDelay > 0 {
			time.Sleep(o.drainDelay)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), o.grace)
		defer cancel()
		halfway := time.AfterFunc(o.grace/2, srv.CancelInFlight)
		defer halfway.Stop()
		err := httpSrv.Shutdown(shutdownCtx)
		if errors.Is(err, context.DeadlineExceeded) {
			// Stragglers past the grace period: closing the connections
			// cancels their request contexts, which stops the searches.
			err = httpSrv.Close()
		}
		if err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}

// shardDataset wires a dataset's counting into a scatter-gather group:
// -shards N builds N in-process shards over the loaded matcher, -peers builds
// one HTTP shard per peer daemon (each of which must serve the same dataset
// at the same scale — the vertex-id space is partitioned by position in the
// peer list).
func shardDataset(srv *server.Server, name string, eng *core.Engine, shards int, peers []string) error {
	switch {
	case len(peers) > 0:
		m := eng.Matcher()
		members := make([]shard.Shard, len(peers))
		for i, u := range peers {
			members[i] = shard.NewClient(fmt.Sprintf("peer%d@%s", i, u), u, name, nil)
		}
		g, err := shard.New("http", members, shard.Partition(m.Graph().NumVertices(), len(peers)), shard.Config{})
		if err != nil {
			return err
		}
		return srv.AddShardGroup(name, g)
	case shards > 0:
		g, err := shard.NewLocalGroup(eng.Matcher(), shards, shard.Config{})
		if err != nil {
			return err
		}
		return srv.AddShardGroup(name, g)
	}
	return nil
}

// generate builds a dataset from internal/datagen at the given scale.
func generate(name string, scale float64) *graph.Graph {
	switch name {
	case "ldbc":
		return datagen.LDBC(datagen.DefaultLDBC().Scaled(scale))
	case "dbpedia":
		cfg := datagen.DefaultDBpedia()
		cfg.Entities = scaleCount(cfg.Entities, scale)
		return datagen.DBpedia(cfg)
	}
	panic("unreachable: dataset names validated at startup")
}

// loadTracker tracks which datasets are still loading and keeps the /readyz
// reason naming them.
type loadTracker struct {
	srv       *server.Server
	mu        sync.Mutex
	remaining map[string]bool
}

func newLoadTracker(srv *server.Server, names []string) *loadTracker {
	t := &loadTracker{srv: srv, remaining: make(map[string]bool, len(names))}
	for _, n := range names {
		t.remaining[n] = true
	}
	srv.SetNotReady("loading " + strings.Join(names, ","))
	return t
}

// done marks one dataset loaded; it returns true when that was the last one
// (the caller flips readiness), otherwise it updates the reason to name the
// datasets still in flight.
func (t *loadTracker) done(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.remaining, name)
	if len(t.remaining) == 0 {
		return true
	}
	left := make([]string, 0, len(t.remaining))
	for n := range t.remaining {
		left = append(left, n)
	}
	sort.Strings(left)
	t.srv.SetNotReady("loading " + strings.Join(left, ","))
	return false
}

func logLoaded(name string, eng *core.Engine, start time.Time) {
	g := eng.Graph()
	log.Printf("loaded dataset %s: %d vertices, %d edges, %d workers (%.2fs)",
		name, g.NumVertices(), g.NumEdges(), eng.Workers(), time.Since(start).Seconds())
}

func scaleCount(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 1 {
		v = 1
	}
	return v
}
