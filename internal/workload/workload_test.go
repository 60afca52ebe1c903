package workload

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/stats"
)

func TestLDBCQueryCardinalitiesMatchTableA1(t *testing.T) {
	g := datagen.LDBC(datagen.DefaultLDBC())
	m := match.New(g)
	for _, nq := range LDBCQueries() {
		got := m.Count(nq.Build(), 0)
		if got != nq.C1 {
			t.Errorf("%s: cardinality = %d, recorded C1 = %d", nq.Name, got, nq.C1)
		}
		// Stay within 10%+1 of the thesis' Table A.1 value.
		diff := got - nq.PaperC1
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.1*float64(nq.PaperC1)+1 {
			t.Errorf("%s: %d too far from paper C1 %d", nq.Name, got, nq.PaperC1)
		}
	}
}

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
}
