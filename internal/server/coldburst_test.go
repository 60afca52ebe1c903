//go:build unix

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/resilience"
	"repro/internal/wire"
	"repro/internal/workload"
)

// BenchmarkColdBurst prices concurrent cold misses. One op releases 16
// identical /v1/explain singles together against a fresh engine over the
// -scale 8 LDBC graph, once for each of the 8 LDBC hot specs (every built-in
// failing with lower 1, and under lower 1 upper 3, at budget 150). The engine
// admits 2 explains at once and queues the rest, so no request is shed.
//
// count-misses/op is what the bursts' /v1/stats report as count-cache
// misses (each one compilation and one execution), and cpu-ms/op the
// process CPU (user + system, getrusage) spent inside the bursts; engine
// builds are outside both the timer and the CPU figure. Every answer of a
// burst must be byte-identical, or the benchmark fails.
//
//	go test -run '^$' -bench ColdBurst -benchtime=1x ./internal/server
func BenchmarkColdBurst(b *testing.B) {
	const burst, workers = 16, 2
	g, err := datagen.Generate("ldbc", 8)
	if err != nil {
		b.Fatal(err)
	}
	var specs [][]byte
	for _, nq := range workload.LDBCQueries() {
		for _, req := range []wire.ExplainRequest{
			{Dataset: "ldbc", Builtin: nq.Name, Failing: true, Lower: 1, Budget: 150},
			{Dataset: "ldbc", Builtin: nq.Name, Lower: 1, Upper: 3, Budget: 150},
		} {
			blob, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			specs = append(specs, blob)
		}
	}
	var countMisses int
	var cpu time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			b.StopTimer()
			eng := core.NewEngine(g)
			eng.SetWorkers(workers)
			s := New(Config{QueueCap: burst})
			s.Resilience().ForceState(resilience.Healthy)
			s.AddDataset("ldbc", eng, workload.LDBCQueries(), workload.FailingVariant)
			h := s.Handler()
			start := make(chan struct{})
			recs := make([]*httptest.ResponseRecorder, burst)
			var wg sync.WaitGroup
			for j := range recs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					recs[j] = do(b, h, "POST", "/v1/explain", spec)
				}()
			}
			before := processCPU(b)
			b.StartTimer()
			close(start)
			wg.Wait()
			b.StopTimer()
			cpu += processCPU(b) - before

			want := dataBytes(b, recs[0])
			for j, rec := range recs {
				if rec.Code != http.StatusOK || string(dataBytes(b, rec)) != string(want) {
					b.Fatalf("spec %s: burst caller %d answered %d, not the first caller's answer", spec, j, rec.Code)
				}
			}
			st := decodeData[wire.StatsResponse](b, do(b, h, "GET", "/v1/stats", nil)).Datasets["ldbc"]
			countMisses += st.CountCache.Misses
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(countMisses)/float64(b.N), "count-misses/op")
	b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
}

// processCPU is the user plus system time the process has used so far.
func processCPU(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
