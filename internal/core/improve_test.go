package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

// collectImprovements runs one explain and records the OnImprovement
// callback sequence.
func collectImprovements(t *testing.T, e *Engine, q *query.Query, opts Options) []Improvement {
	t.Helper()
	var seq []Improvement
	opts.OnImprovement = func(imp Improvement) { seq = append(seq, imp) }
	if _, err := e.ExplainCtx(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestOnImprovementDeterminism is the anytime-streaming contract: the
// improvement callback sequence — every field of every event, in order — is
// a function of the query and options alone. A cold run (empty caches) and a
// warm repeat on the same engine fire byte-identical sequences. The
// /v1/explain/stream transport depends on this: a streamed run must not
// diverge from the blocking answer it is differential-tested against.
func TestOnImprovementDeterminism(t *testing.T) {
	g := datagen.LDBC(datagen.DefaultLDBC().Scaled(0.1))
	e := NewEngine(g)
	failing, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    *query.Query
		opts Options
	}{
		// why-empty: coarse relaxation + MCS both fire improvements.
		{"why-empty", failing, Options{Expected: metrics.AtLeastOne, Budget: 120}},
		// why-so-many: the fine-grained tree search fires improvements.
		{"why-so-many", workload.LDBCQuery3(), Options{Expected: metrics.Interval{Lower: 1, Upper: 2}, Budget: 120}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := collectImprovements(t, e, tc.q, tc.opts)
			if len(cold) == 0 {
				t.Fatal("no improvements fired; the case does not exercise the callback")
			}
			warm := collectImprovements(t, e, tc.q, tc.opts)
			want, err := json.Marshal(cold)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(warm)
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Fatalf("callback sequence diverged between a cold and a warm run:\ncold (%d events) %s\nwarm (%d events) %s",
					len(cold), want, len(warm), got)
			}
		})
	}
}

// TestOnImprovementMonotone checks the quality-bound contract per family:
// within one explain, every family's reported best distance never regresses
// and its executed counter never decreases.
func TestOnImprovementMonotone(t *testing.T) {
	g := datagen.LDBC(datagen.DefaultLDBC().Scaled(0.1))
	e := NewEngine(g)
	failing, err := workload.FailingVariant("LDBC QUERY 2")
	if err != nil {
		t.Fatal(err)
	}
	seq := collectImprovements(t, e, failing, Options{Expected: metrics.AtLeastOne, Budget: 120})
	if len(seq) == 0 {
		t.Fatal("no improvements fired")
	}
	bestByFamily := map[string]int{}
	execByFamily := map[string]int{}
	for i, imp := range seq {
		if best, ok := bestByFamily[imp.Family]; ok && imp.Distance > best {
			t.Fatalf("event %d: family %s distance regressed %d -> %d", i, imp.Family, best, imp.Distance)
		}
		bestByFamily[imp.Family] = imp.Distance
		if imp.Executed < execByFamily[imp.Family] {
			t.Fatalf("event %d: family %s executed decreased %d -> %d", i, imp.Family, execByFamily[imp.Family], imp.Executed)
		}
		execByFamily[imp.Family] = imp.Executed
	}
}
