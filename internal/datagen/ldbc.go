// Package datagen builds the two evaluation data sets of Appendix A.2 as
// deterministic synthetic graphs: an LDBC-SNB-style social network (persons,
// cities, countries, universities, companies, tags, forums, posts with the
// standard edge types) and a DBpedia-style heterogeneous entity graph with an
// irregular schema and heavy-tailed degrees. The thesis ran on LDBC SF1 and a
// DBpedia extract; the generators reproduce their structural character —
// entity mix, attribute skew, connectivity — at a laptop-friendly scale, so
// the why-query algorithms exercise the same code paths (see DESIGN.md,
// substitutions).
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// LDBCConfig sizes the social-network generator. The zero value is invalid;
// use DefaultLDBC (≈ the thesis' SF1 in miniature) and scale from there.
type LDBCConfig struct {
	Seed         int64
	Persons      int
	Countries    int
	CitiesPer    int // cities per country
	Universities int
	Companies    int
	Tags         int
	Forums       int
	Posts        int
	KnowsPer     int // average knows edges per person
	InterestsPer int // average hasInterest edges per person
	LikesPer     int // average likes edges per person
}

// DefaultLDBC is the default configuration used by the experiment suite.
func DefaultLDBC() LDBCConfig {
	return LDBCConfig{
		Seed:         42,
		Persons:      1200,
		Countries:    10,
		CitiesPer:    3,
		Universities: 24,
		Companies:    60,
		Tags:         40,
		Forums:       30,
		Posts:        2400,
		KnowsPer:     5,
		InterestsPer: 3,
		LikesPer:     4,
	}
}

// Scaled multiplies the entity counts by f (≥ 0.05) for size sweeps.
func (c LDBCConfig) Scaled(f float64) LDBCConfig {
	c.Persons = scaled(c.Persons, f)
	c.Universities = scaled(c.Universities, f)
	c.Companies = scaled(c.Companies, f)
	c.Tags = scaled(c.Tags, f)
	c.Forums = scaled(c.Forums, f)
	c.Posts = scaled(c.Posts, f)
	return c
}

// scaled is n·f rounded down, at least 1.
func scaled(n int, f float64) int { return max(int(float64(n)*f), 1) }

// Generate builds the dataset called name — "ldbc" or "dbpedia" — from its
// default configuration scaled by f: what whydbd serves at -scale f and
// `whydb pack -scale f` writes, so a daemon booted from the snapshot serves
// what one that generated the dataset does.
func Generate(name string, f float64) (*graph.Graph, error) {
	switch name {
	case "ldbc":
		return LDBC(DefaultLDBC().Scaled(f)), nil
	case "dbpedia":
		return DBpedia(DefaultDBpedia().Scaled(f)), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want ldbc or dbpedia)", name)
}

var (
	firstNames = []string{"Anna", "Bert", "Cara", "Dave", "Elena", "Franz", "Greta", "Hans", "Ivan", "Jana",
		"Karl", "Lena", "Marko", "Nina", "Otto", "Paula", "Quentin", "Rosa", "Stefan", "Tanja",
		"Ulrich", "Vera", "Wolfgang", "Xenia", "Yuri", "Zoe"}
	countryNames = []string{"Germany", "Denmark", "France", "Spain", "Italy", "Poland", "Austria", "Sweden", "Norway", "Finland",
		"Portugal", "Greece", "Hungary", "Romania", "Ireland"}
	browsers  = []string{"Firefox", "Chrome", "Safari", "Opera"}
	genders   = []string{"male", "female"}
	tagThemes = []string{"music", "sports", "science", "travel", "food", "art", "history", "movies", "books", "games"}
)

// LDBC generates the social network. Vertices carry a "type" attribute
// (person, city, country, university, company, tag, forum, post); the edge
// types are knows, livesIn, studyAt, workAt, hasInterest, locatedIn,
// memberOf, hasCreator, hasTag, and likes. The result is deterministic in
// the configuration (including Seed).
func LDBC(cfg LDBCConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// One attribute map per (key, year) pair, not one per edge: AddEdge holds
	// the map, immutable, until Freeze encodes it.
	years := func(key string, from, n int) []graph.Attrs {
		maps := make([]graph.Attrs, n)
		for i := range maps {
			maps[i] = graph.Attrs{key: graph.N(float64(from + i))}
		}
		return maps
	}
	classYear, sinceYear, joinYear := years("classYear", 1995, 20), years("sinceYear", 1998, 18), years("joinYear", 2008, 8)
	since, year := years("since", 2005, 11), years("year", 2010, 6)
	g := graph.New(cfg.Persons+cfg.Countries*(1+cfg.CitiesPer)+cfg.Universities+cfg.Companies+cfg.Tags+cfg.Forums+cfg.Posts, cfg.Persons*(cfg.KnowsPer+cfg.InterestsPer+cfg.LikesPer+3)+cfg.Posts*2)

	// Countries and cities.
	countries := make([]graph.VertexID, cfg.Countries)
	var cities []graph.VertexID
	cityCountry := map[graph.VertexID]int{}
	for i := 0; i < cfg.Countries; i++ {
		name := countryNames[i%len(countryNames)]
		countries[i] = g.AddVertex(graph.Attrs{
			"type": graph.S("country"), "name": graph.S(name),
		})
		for j := 0; j < cfg.CitiesPer; j++ {
			city := g.AddVertex(graph.Attrs{
				"type":       graph.S("city"),
				"name":       graph.S(fmt.Sprintf("%s-City-%d", name, j)),
				"population": graph.N(float64(10000 + rng.Intn(2000000))),
			})
			g.AddEdge(city, countries[i], "locatedIn", nil)
			cities = append(cities, city)
			cityCountry[city] = i
		}
	}

	// Universities and companies sit in cities.
	universities := make([]graph.VertexID, cfg.Universities)
	for i := range universities {
		city := cities[rng.Intn(len(cities))]
		universities[i] = g.AddVertex(graph.Attrs{
			"type": graph.S("university"),
			"name": graph.S(fmt.Sprintf("University-%d", i)),
		})
		g.AddEdge(universities[i], city, "locatedIn", nil)
	}
	companies := make([]graph.VertexID, cfg.Companies)
	for i := range companies {
		city := cities[rng.Intn(len(cities))]
		companies[i] = g.AddVertex(graph.Attrs{
			"type":     graph.S("company"),
			"name":     graph.S(fmt.Sprintf("Company-%d", i)),
			"industry": graph.S(tagThemes[rng.Intn(len(tagThemes))]),
		})
		g.AddEdge(companies[i], city, "locatedIn", nil)
	}

	// Tags and forums.
	tags := make([]graph.VertexID, cfg.Tags)
	for i := range tags {
		tags[i] = g.AddVertex(graph.Attrs{
			"type":  graph.S("tag"),
			"name":  graph.S(fmt.Sprintf("%s-%d", tagThemes[i%len(tagThemes)], i)),
			"theme": graph.S(tagThemes[i%len(tagThemes)]),
		})
	}
	forums := make([]graph.VertexID, cfg.Forums)
	for i := range forums {
		forums[i] = g.AddVertex(graph.Attrs{
			"type": graph.S("forum"),
			"name": graph.S(fmt.Sprintf("Forum-%d", i)),
		})
	}

	// Persons.
	persons := make([]graph.VertexID, cfg.Persons)
	for i := range persons {
		country := rng.Intn(cfg.Countries)
		persons[i] = g.AddVertex(graph.Attrs{
			"type":        graph.S("person"),
			"name":        graph.S(firstNames[rng.Intn(len(firstNames))]),
			"age":         graph.N(float64(18 + rng.Intn(47))),
			"gender":      graph.S(genders[rng.Intn(2)]),
			"nationality": graph.S(countryNames[country%len(countryNames)]),
			"browser":     graph.S(browsers[rng.Intn(len(browsers))]),
		})
		// livesIn: usually a city of the nationality's country.
		var city graph.VertexID
		if rng.Float64() < 0.8 {
			city = cities[country*cfg.CitiesPer+rng.Intn(cfg.CitiesPer)]
		} else {
			city = cities[rng.Intn(len(cities))]
		}
		g.AddEdge(persons[i], city, "livesIn", nil)
		// studyAt with classYear.
		if rng.Float64() < 0.6 {
			g.AddEdge(persons[i], universities[rng.Intn(len(universities))], "studyAt",
				classYear[rng.Intn(len(classYear))])
		}
		// workAt with sinceYear; a few people work at universities.
		if rng.Float64() < 0.75 {
			employer := companies[rng.Intn(len(companies))]
			if rng.Float64() < 0.15 {
				employer = universities[rng.Intn(len(universities))]
			}
			g.AddEdge(persons[i], employer, "workAt",
				sinceYear[rng.Intn(len(sinceYear))])
		}
		// memberOf forums.
		if rng.Float64() < 0.5 {
			g.AddEdge(persons[i], forums[rng.Intn(len(forums))], "memberOf",
				joinYear[rng.Intn(len(joinYear))])
		}
	}

	// knows: preferential attachment flavoured — earlier persons are hubbier.
	for i, p := range persons {
		k := rng.Intn(cfg.KnowsPer*2 + 1)
		for j := 0; j < k; j++ {
			var q graph.VertexID
			if rng.Float64() < 0.5 && i > 0 {
				q = persons[rng.Intn(i)] // bias toward earlier (hub) persons
			} else {
				q = persons[rng.Intn(len(persons))]
			}
			if q == p {
				continue
			}
			g.AddEdge(p, q, "knows",
				since[rng.Intn(len(since))])
		}
	}

	// hasInterest.
	for _, p := range persons {
		k := rng.Intn(cfg.InterestsPer*2 + 1)
		for j := 0; j < k; j++ {
			g.AddEdge(p, tags[rng.Intn(len(tags))], "hasInterest", nil)
		}
	}

	// Posts: creator, forum tag, likes.
	posts := make([]graph.VertexID, cfg.Posts)
	for i := range posts {
		posts[i] = g.AddVertex(graph.Attrs{
			"type":     graph.S("post"),
			"length":   graph.N(float64(10 + rng.Intn(500))),
			"language": graph.S([]string{"en", "de", "fr", "es"}[rng.Intn(4)]),
		})
		creator := persons[rng.Intn(len(persons))]
		g.AddEdge(posts[i], creator, "hasCreator", nil)
		g.AddEdge(posts[i], tags[rng.Intn(len(tags))], "hasTag", nil)
	}
	for _, p := range persons {
		k := rng.Intn(cfg.LikesPer*2 + 1)
		for j := 0; j < k; j++ {
			g.AddEdge(p, posts[rng.Intn(len(posts))], "likes",
				year[rng.Intn(len(year))])
		}
	}

	g.BuildVertexIndex("type", "name")
	return g
}
