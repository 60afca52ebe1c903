package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestLDBCDeterminism(t *testing.T) {
	cfg := DefaultLDBC().Scaled(0.2)
	a := LDBC(cfg)
	b := LDBC(cfg)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("non-deterministic sizes: %d/%d vs %d/%d",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for i := 0; i < a.NumEdges(); i += 97 {
		ea, eb := a.Edge(graph.EdgeID(i)), b.Edge(graph.EdgeID(i))
		if ea.Type != eb.Type || ea.From != eb.From || ea.To != eb.To {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestLDBCSchema(t *testing.T) {
	g := LDBC(DefaultLDBC().Scaled(0.2))
	wantTypes := []string{"knows", "livesIn", "studyAt", "workAt", "hasInterest", "locatedIn", "memberOf", "hasCreator", "hasTag", "likes"}
	sum := g.Summary()
	for _, typ := range wantTypes {
		if sum.EdgeTypes[typ] == 0 {
			t.Errorf("no %q edges generated", typ)
		}
	}
	// Every person lives somewhere.
	persons, ok := g.VerticesByAttr("type", graph.S("person"))
	if !ok || len(persons) == 0 {
		t.Fatal("no persons / no type index")
	}
	for _, p := range persons[:10] {
		lives := false
		for _, e := range g.Out(p) {
			if g.Edge(e).Type == "livesIn" {
				lives = true
			}
		}
		if !lives {
			t.Fatalf("person %d has no livesIn edge", p)
		}
	}
	// Cities are located in countries.
	cities, _ := g.VerticesByAttr("type", graph.S("city"))
	for _, c := range cities {
		found := false
		for _, e := range g.Out(c) {
			if g.Edge(e).Type == "locatedIn" {
				found = true
			}
		}
		if !found {
			t.Fatalf("city %d not located in a country", c)
		}
	}
}

func TestLDBCScaled(t *testing.T) {
	small := LDBC(DefaultLDBC().Scaled(0.1))
	big := LDBC(DefaultLDBC().Scaled(0.4))
	if small.NumVertices() >= big.NumVertices() {
		t.Fatalf("scaling broken: %d vs %d", small.NumVertices(), big.NumVertices())
	}
	if c := DefaultLDBC().Scaled(0.0001); c.Persons < 1 {
		t.Fatal("scaling must keep at least one entity")
	}
}

func TestDBpediaDeterminismAndSchema(t *testing.T) {
	cfg := DefaultDBpedia()
	cfg.Entities = 500
	a := DBpedia(cfg)
	b := DBpedia(cfg)
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("non-deterministic DBpedia generation")
	}
	// All five kinds appear; persons dominate (Zipf over kinds).
	counts := map[string]int{}
	for i := 0; i < a.NumVertices(); i++ {
		counts[a.VertexAttrs(graph.VertexID(i))["type"].Str]++
	}
	for _, kind := range dbpKinds {
		if counts[kind] == 0 {
			t.Errorf("kind %q missing", kind)
		}
	}
	if counts["person"] < counts["event"] {
		t.Errorf("Zipf kind skew missing: %v", counts)
	}
}

func TestDBpediaIrregularSchema(t *testing.T) {
	g := DBpedia(DBpediaConfig{Seed: 7, Entities: 800, EdgesPer: 3})
	persons, _ := g.VerticesByAttr("type", graph.S("person"))
	withBirth, without := 0, 0
	for _, p := range persons {
		if _, ok := g.VertexAttrs(p)["birthYear"]; ok {
			withBirth++
		} else {
			without++
		}
	}
	if withBirth == 0 || without == 0 {
		t.Fatalf("schema should be irregular: %d with, %d without birthYear", withBirth, without)
	}
}

func TestDBpediaHeavyTail(t *testing.T) {
	g := DBpedia(DefaultDBpedia())
	maxDeg, sumDeg := 0, 0
	for i := 0; i < g.NumVertices(); i++ {
		d := g.Degree(graph.VertexID(i))
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sumDeg) / float64(g.NumVertices())
	if float64(maxDeg) < 10*avg {
		t.Fatalf("expected hubs: max degree %d, avg %.1f", maxDeg, avg)
	}
}

func TestZipfIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 64, 65, 1000} {
		lowSeen := false
		for i := 0; i < 200; i++ {
			idx := zipfIndex(rng, n)
			if idx < 0 || idx >= n {
				t.Fatalf("zipfIndex(%d) = %d out of range", n, idx)
			}
			if idx == 0 {
				lowSeen = true
			}
		}
		if !lowSeen {
			t.Fatalf("zipfIndex(%d) never drew the head", n)
		}
	}
}
