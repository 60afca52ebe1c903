//go:build !race

// The race detector's instrumentation allocates, so this pin exists only in
// uninstrumented builds (TestCountAllocsZero exempts itself the same way).

package repro_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/workload"
)

// TestHotExplainAllocs pins what one hot explain — every plan, count and
// statistics lookup a hit — leaves for the collector: the bookkeeping around
// the hits. The corpus is the service benchmark's 16 hot specs at budget 150
// on two workers. Machine-independent; the speed itself is whybench's
// explain_repeat. The graphs are whybench's (-scale 8): a matching context's
// visited bitsets grow with the data graph, and a search that builds contexts
// per request shows it here.
func TestHotExplainAllocs(t *testing.T) {
	// 473 objects / 41 KB when written (1 335 / 169 KB before candidates
	// shared storage); scoring children through stats.InducedChange again —
	// the parent re-estimated and deep-cloned per child — reads 705 / 69 KB.
	const maxObjects, maxBytes = 600, 56 << 10
	lg := datagen.LDBC(datagen.DefaultLDBC().Scaled(8))
	dcfg := datagen.DefaultDBpedia()
	dcfg.Entities *= 8
	dg := datagen.DBpedia(dcfg)
	type hot struct {
		eng *repro.Engine
		c   scoringCase
	}
	var specs []hot
	for _, ds := range []struct {
		name string
		g    *repro.Graph
		base []workload.Named
	}{{"ldbc", lg, workload.LDBCQueries()}, {"dbpedia", dg, workload.DBpediaQueries()}} {
		eng := repro.NewEngine(ds.g)
		eng.SetWorkers(2)
		for _, c := range scoringCorpus(t, ds.name, eng.Matcher(), eng.Domain(), ds.base, 0) {
			specs = append(specs, hot{eng, c})
		}
	}
	if len(specs) != 16 {
		t.Fatalf("%d hot specs, want 16", len(specs))
	}
	cycle := func(n int) {
		for ; n > 0; n-- {
			for _, s := range specs {
				if _, err := s.eng.Explain(s.c.q, s.c.opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cycle(20)
	const cycles = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cycle(cycles)
	runtime.ReadMemStats(&after)
	explains := uint64(cycles * len(specs))
	objects, bytes := (after.Mallocs-before.Mallocs)/explains, (after.TotalAlloc-before.TotalAlloc)/explains
	t.Logf("%d objects, %d bytes per hot explain", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a hot explain allocates %d objects / %d bytes, want at most %d / %d", objects, bytes, maxObjects, maxBytes)
	}
}
