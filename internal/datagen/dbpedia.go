package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// DBpediaConfig sizes the heterogeneous entity-graph generator.
type DBpediaConfig struct {
	Seed     int64
	Entities int
	// EdgesPer is the average out-degree; actual degrees are heavy-tailed.
	EdgesPer int
}

// DefaultDBpedia is the default configuration used by the experiment suite.
func DefaultDBpedia() DBpediaConfig {
	return DBpediaConfig{Seed: 7, Entities: 2500, EdgesPer: 4}
}

// Scaled multiplies the entity count by f, as LDBCConfig.Scaled does.
func (c DBpediaConfig) Scaled(f float64) DBpediaConfig {
	c.Entities = scaled(c.Entities, f)
	return c
}

var (
	dbpKinds = []string{"person", "place", "work", "organization", "event"}
	// Per-kind attribute catalogs; entities carry a random subset — the
	// irregular-schema property of DBpedia infoboxes.
	dbpAttrs = map[string][]string{
		"person":       {"birthYear", "field", "nationality", "award"},
		"place":        {"population", "region", "elevation"},
		"work":         {"releaseYear", "genre", "language"},
		"organization": {"foundedYear", "sector", "members"},
		"event":        {"year", "location", "scale"},
	}
	dbpFields  = []string{"physics", "chemistry", "mathematics", "literature", "music", "painting", "politics"}
	dbpRegions = []string{"Saxony", "Bavaria", "Jutland", "Andalusia", "Tuscany", "Silesia", "Lapland"}
	dbpGenres  = []string{"novel", "opera", "symphony", "film", "essay", "poem"}
	dbpSectors = []string{"software", "automotive", "finance", "energy", "research"}
	// Relation types with the entity kinds they connect.
	dbpRelations = []struct {
		typ      string
		from, to string
	}{
		{"bornIn", "person", "place"},
		{"diedIn", "person", "place"},
		{"author", "work", "person"},
		{"memberOf", "person", "organization"},
		{"influencedBy", "person", "person"},
		{"locatedIn", "organization", "place"},
		{"partOf", "place", "place"},
		{"occurredIn", "event", "place"},
		{"participatedIn", "person", "event"},
		{"about", "work", "event"},
	}
)

// DBpedia generates a heterogeneous entity graph with five entity kinds,
// kind-specific (and partially missing) attributes, and Zipf-flavoured hub
// degrees — the structural profile of the thesis' DBPEDIA data set.
func DBpedia(cfg DBpediaConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New(cfg.Entities, cfg.Entities*cfg.EdgesPer)

	byKind := map[string][]graph.VertexID{}
	for i := 0; i < cfg.Entities; i++ {
		kind := dbpKinds[zipfIndex(rng, len(dbpKinds))]
		attrs := graph.Attrs{
			"type": graph.S(kind),
			"name": graph.S(fmt.Sprintf("%s_%d", kind, i)),
		}
		// Random subset of the kind's attributes: irregular schema.
		for _, a := range dbpAttrs[kind] {
			if rng.Float64() > 0.7 {
				continue // attribute missing for this entity
			}
			switch a {
			case "birthYear":
				attrs[a] = graph.N(float64(1700 + rng.Intn(300)))
			case "field":
				attrs[a] = graph.S(dbpFields[rng.Intn(len(dbpFields))])
			case "nationality":
				attrs[a] = graph.S(countryNames[rng.Intn(len(countryNames))])
			case "award":
				attrs[a] = graph.S([]string{"nobel", "fields", "pulitzer", "oscar"}[rng.Intn(4)])
			case "population":
				attrs[a] = graph.N(float64(1000 + rng.Intn(5000000)))
			case "region":
				attrs[a] = graph.S(dbpRegions[rng.Intn(len(dbpRegions))])
			case "elevation":
				attrs[a] = graph.N(float64(rng.Intn(3000)))
			case "releaseYear", "foundedYear", "year":
				attrs[a] = graph.N(float64(1800 + rng.Intn(220)))
			case "genre":
				attrs[a] = graph.S(dbpGenres[rng.Intn(len(dbpGenres))])
			case "language":
				attrs[a] = graph.S([]string{"en", "de", "fr", "es", "it"}[rng.Intn(5)])
			case "sector":
				attrs[a] = graph.S(dbpSectors[rng.Intn(len(dbpSectors))])
			case "members":
				attrs[a] = graph.N(float64(10 + rng.Intn(100000)))
			case "location":
				attrs[a] = graph.S(dbpRegions[rng.Intn(len(dbpRegions))])
			case "scale":
				attrs[a] = graph.N(float64(1 + rng.Intn(10)))
			}
		}
		id := g.AddVertex(attrs)
		byKind[kind] = append(byKind[kind], id)
	}

	// Relations: hubs attract links (Zipf over the target pool).
	total := cfg.Entities * cfg.EdgesPer
	for i := 0; i < total; i++ {
		rel := dbpRelations[rng.Intn(len(dbpRelations))]
		froms, tos := byKind[rel.from], byKind[rel.to]
		if len(froms) == 0 || len(tos) == 0 {
			continue
		}
		from := froms[rng.Intn(len(froms))]
		to := tos[zipfIndex(rng, len(tos))]
		if from == to {
			continue
		}
		g.AddEdge(from, to, rel.typ, nil)
	}

	g.BuildVertexIndex("type", "name")
	return g
}

// zipfIndex draws an index in [0,n) with probability ∝ 1/(i+1).
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF over harmonic weights, cheap for small n; for large n use
	// rejection via continuous approximation.
	if n <= 64 {
		var h float64
		for i := 0; i < n; i++ {
			h += 1 / float64(i+1)
		}
		x := rng.Float64() * h
		var acc float64
		for i := 0; i < n; i++ {
			acc += 1 / float64(i+1)
			if x <= acc {
				return i
			}
		}
		return n - 1
	}
	for {
		// Continuous Zipf by inversion: i ≈ n^u − 1.
		u := rng.Float64()
		i := int(math.Pow(float64(n), u)) - 1
		if i >= 0 && i < n {
			return i
		}
	}
}
