package workload

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/query"
	"repro/internal/stats"
)

func TestFailingVariantsAreEmpty(t *testing.T) {
	g := datagen.LDBC(datagen.DefaultLDBC())
	m := match.New(g)
	for _, nq := range LDBCQueries() {
		fq, err := FailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Count(fq, 1) > 0 {
			t.Errorf("%s failing variant still matches", nq.Name)
		}
		// Same shape as the original.
		orig := nq.Build()
		if fq.NumVertices() != orig.NumVertices() || fq.NumEdges() != orig.NumEdges() {
			t.Errorf("%s failing variant changed topology", nq.Name)
		}
	}
	if _, err := FailingVariant("nope"); err == nil {
		t.Fatal("unknown query must error")
	}
}

func TestDBpediaQueriesMatch(t *testing.T) {
	g := datagen.DBpedia(datagen.DefaultDBpedia())
	m := match.New(g)
	for _, nq := range DBpediaQueries() {
		got := m.Count(nq.Build(), 0)
		if got == 0 {
			t.Errorf("%s matches nothing on the default DBpedia graph", nq.Name)
		}
	}
	for _, nq := range DBpediaQueries() {
		fq, err := DBpediaFailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Count(fq, 1) > 0 {
			t.Errorf("%s failing variant still matches", nq.Name)
		}
	}
	if _, err := DBpediaFailingVariant("nope"); err == nil {
		t.Fatal("unknown query must error")
	}
}

func TestThreshold(t *testing.T) {
	if Threshold(100, 0.2) != 20 || Threshold(100, 5) != 500 {
		t.Fatal("Threshold arithmetic broken")
	}
	if Threshold(1, 0.2) != 1 {
		t.Fatal("Threshold must be at least 1")
	}
	if len(CardinalityFactors) != 4 {
		t.Fatal("factors changed")
	}
}

func TestRandomExplanations(t *testing.T) {
	g := datagen.LDBC(datagen.DefaultLDBC().Scaled(0.3))
	dom := stats.BuildDomain(g, 8)
	q := LDBCQuery2()
	a := RandomExplanations(q, dom, 50, 1)
	b := RandomExplanations(q, dom, 50, 1)
	if len(a) != 50 {
		t.Fatalf("generated %d explanations, want 50", len(a))
	}
	seen := map[string]bool{}
	for i, expl := range a {
		key := expl.Canonical()
		if seen[key] {
			t.Fatal("duplicate explanation generated")
		}
		seen[key] = true
		if key == q.Canonical() {
			t.Fatal("unmodified query emitted")
		}
		if expl.Canonical() != b[i].Canonical() {
			t.Fatal("generation not deterministic")
		}
	}
	// Different seed, different stream.
	c := RandomExplanations(q, dom, 50, 2)
	same := 0
	for i := range c {
		if i < len(a) && c[i].Canonical() == a[i].Canonical() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds do not change the stream")
	}

	// A vertex with two multi-value and two range predicates: which of them
	// a shrink or a range change picks must not depend on map order, so
	// every seed generates the same corpus twice.
	q = LDBCQuery3()
	preds := q.Vertex(0).Preds
	preds["type"] = query.In(graph.S("person"), graph.S("forum"))
	preds["gender"] = query.In(graph.S("female"), graph.S("male"))
	preds["age"] = query.Between(20, 60)
	preds["birthYear"] = query.Between(1960, 2000)
	for seed := int64(1); seed <= 50; seed++ {
		a, b := RandomExplanations(q, dom, 50, seed), RandomExplanations(q, dom, 50, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d then %d explanations", seed, len(a), len(b))
		}
		for i := range a {
			if a[i].Canonical() != b[i].Canonical() {
				t.Fatalf("seed %d: explanation %d differs between two generations", seed, i)
			}
		}
	}
}
