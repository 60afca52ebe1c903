// Package workload defines the evaluation workloads of Appendix A: the four
// LDBC pattern-matching queries of Table A.1 (tuned on the synthetic
// LDBC-like graph so their original cardinalities land on the thesis' 21 /
// 39 / 188 / 195 — measured 20 / 39 / 189 / 195 here), four DBPEDIA queries
// over the heterogeneous entity graph, failing (why-empty) variants of each,
// and the random modification-based explanation generator used by the
// metric evaluation of §3.2.5 (Figures 3.7–3.9).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/query"
	"repro/internal/stats"
)

// Named is a workload query with its measured original cardinality on the
// default data set (C1 in Table A.1).
type Named struct {
	Name string
	// Build constructs a fresh copy of the query.
	Build func() *query.Query
	// C1 is the original cardinality on the default generator config.
	C1 int
	// PaperC1 is the cardinality the thesis reports (LDBC queries only).
	PaperC1 int
}

// LDBCQueries returns LDBC QUERY 1–4.
func LDBCQueries() []Named {
	return []Named{
		{Name: "LDBC QUERY 1", Build: LDBCQuery1, C1: 20, PaperC1: 21},
		{Name: "LDBC QUERY 2", Build: LDBCQuery2, C1: 39, PaperC1: 39},
		{Name: "LDBC QUERY 3", Build: LDBCQuery3, C1: 189, PaperC1: 188},
		{Name: "LDBC QUERY 4", Build: LDBCQuery4, C1: 195, PaperC1: 195},
	}
}

// LDBCQuery1 — recent students at universities in large cities:
// person -studyAt(classYear≥2013)-> university -locatedIn->
// city(population≥1.5M). C1 = 20.
func LDBCQuery1() *query.Query {
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	u := q.AddVertex(map[string]query.Predicate{"type": query.EqS("university")})
	c := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city"), "population": query.AtLeast(1500000)})
	q.AddEdge(p, u, []string{"studyAt"}, map[string]query.Predicate{"classYear": query.AtLeast(2013)})
	q.AddEdge(u, c, []string{"locatedIn"}, nil)
	return q
}

// LDBCQuery2 — travel enthusiasts living in France:
// person -hasInterest-> tag(theme=travel); person -livesIn-> city
// -locatedIn-> country(name=France). C1 = 39.
func LDBCQuery2() *query.Query {
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	t := q.AddVertex(map[string]query.Predicate{"type": query.EqS("tag"), "theme": query.EqS("travel")})
	ci := q.AddVertex(map[string]query.Predicate{"type": query.EqS("city")})
	co := q.AddVertex(map[string]query.Predicate{"type": query.EqS("country"), "name": query.EqS("France")})
	q.AddEdge(p, t, []string{"hasInterest"}, nil)
	q.AddEdge(p, ci, []string{"livesIn"}, nil)
	q.AddEdge(ci, co, []string{"locatedIn"}, nil)
	return q
}

// LDBCQuery3 — recent friendships from adult women to young men:
// person(female, age≥20) -knows(since≥2011)-> person(male, age≤30).
// C1 = 189.
func LDBCQuery3() *query.Query {
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "gender": query.EqS("female"), "age": query.AtLeast(20)})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "gender": query.EqS("male"), "age": query.AtMost(30)})
	q.AddEdge(a, b, []string{"knows"}, map[string]query.Predicate{"since": query.AtLeast(2011)})
	return q
}

// LDBCQuery4 — like Query 3 without the lower age bound. C1 = 195.
func LDBCQuery4() *query.Query {
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "gender": query.EqS("female")})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "gender": query.EqS("male"), "age": query.AtMost(30)})
	q.AddEdge(a, b, []string{"knows"}, map[string]query.Predicate{"since": query.AtLeast(2011)})
	return q
}

// FailingVariant returns a why-empty version of the named LDBC query: one
// constraint is tightened past satisfiability, keeping everything else.
func FailingVariant(name string) (*query.Query, error) {
	switch name {
	case "LDBC QUERY 1":
		q := LDBCQuery1()
		q.Vertex(2).Preds["population"] = query.AtLeast(99000000)
		return q, nil
	case "LDBC QUERY 2":
		q := LDBCQuery2()
		q.Vertex(3).Preds["name"] = query.EqS("Atlantis")
		return q, nil
	case "LDBC QUERY 3":
		q := LDBCQuery3()
		q.Edge(0).Preds["since"] = query.AtLeast(2030)
		return q, nil
	case "LDBC QUERY 4":
		q := LDBCQuery4()
		q.Vertex(1).Preds["age"] = query.AtMost(10)
		return q, nil
	default:
		return nil, fmt.Errorf("workload: unknown query %q", name)
	}
}

// DBpediaQueries returns DBPEDIA QUERY 1–4 over the heterogeneous graph.
func DBpediaQueries() []Named {
	return []Named{
		{Name: "DBPEDIA QUERY 1", Build: DBpediaQuery1},
		{Name: "DBPEDIA QUERY 2", Build: DBpediaQuery2},
		{Name: "DBPEDIA QUERY 3", Build: DBpediaQuery3},
		{Name: "DBPEDIA QUERY 4", Build: DBpediaQuery4},
	}
}

// DBpediaQuery1 — physicists born in Saxony:
// person(field=physics) -bornIn-> place(region=Saxony).
func DBpediaQuery1() *query.Query {
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "field": query.EqS("physics")})
	pl := q.AddVertex(map[string]query.Predicate{"type": query.EqS("place"), "region": query.EqS("Saxony")})
	q.AddEdge(p, pl, []string{"bornIn"}, nil)
	return q
}

// DBpediaQuery2 — novels by German authors:
// work(genre=novel) -author-> person(nationality=Germany).
func DBpediaQuery2() *query.Query {
	q := query.New()
	w := q.AddVertex(map[string]query.Predicate{"type": query.EqS("work"), "genre": query.EqS("novel")})
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "nationality": query.EqS("Germany")})
	q.AddEdge(w, p, []string{"author"}, nil)
	return q
}

// DBpediaQuery3 — members of research organizations and their seats:
// person -memberOf-> organization(sector=research) -locatedIn-> place.
func DBpediaQuery3() *query.Query {
	q := query.New()
	p := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	o := q.AddVertex(map[string]query.Predicate{"type": query.EqS("organization"), "sector": query.EqS("research")})
	pl := q.AddVertex(map[string]query.Predicate{"type": query.EqS("place")})
	q.AddEdge(p, o, []string{"memberOf"}, nil)
	q.AddEdge(o, pl, []string{"locatedIn"}, nil)
	return q
}

// DBpediaQuery4 — people influenced by Nobel laureates:
// person -influencedBy-> person(award=nobel).
func DBpediaQuery4() *query.Query {
	q := query.New()
	a := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	b := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person"), "award": query.EqS("nobel")})
	q.AddEdge(a, b, []string{"influencedBy"}, nil)
	return q
}

// DBpediaFailingVariant tightens one constraint of the named DBpedia query
// past satisfiability.
func DBpediaFailingVariant(name string) (*query.Query, error) {
	switch name {
	case "DBPEDIA QUERY 1":
		q := DBpediaQuery1()
		q.Vertex(1).Preds["region"] = query.EqS("Mordor")
		return q, nil
	case "DBPEDIA QUERY 2":
		q := DBpediaQuery2()
		q.Vertex(0).Preds["genre"] = query.EqS("haiku")
		return q, nil
	case "DBPEDIA QUERY 3":
		q := DBpediaQuery3()
		q.Vertex(1).Preds["sector"] = query.EqS("alchemy")
		return q, nil
	case "DBPEDIA QUERY 4":
		q := DBpediaQuery4()
		q.Vertex(1).Preds["award"] = query.EqS("midas")
		return q, nil
	default:
		return nil, fmt.Errorf("workload: unknown query %q", name)
	}
}

// CardinalityFactors are the thresholds-as-factors of §3.2.5: factors < 1
// model the too-many-answers problem, factors > 1 the too-few-answers one.
var CardinalityFactors = []float64{0.2, 0.5, 2, 5}

// Threshold converts a cardinality factor into the absolute threshold for a
// query with original cardinality c1 (at least 1).
func Threshold(c1 int, factor float64) int {
	t := int(float64(c1) * factor)
	if t < 1 {
		t = 1
	}
	return t
}

// RandomExplanations generates n distinct modified queries by applying one
// to three random modification operations drawn from the Table 3.1 catalog,
// mirroring the §3.2.5 random-candidate procedure. Values for extensions
// come from the domain catalog. Generation is deterministic in the seed.
func RandomExplanations(q *query.Query, dom *stats.Domain, n int, seed int64) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{q.Canonical(): true}
	var out []*query.Query
	attempts := 0
	for len(out) < n && attempts < n*50 {
		attempts++
		depth := 1 + rng.Intn(3)
		cand := q.Clone()
		applied := 0
		for step := 0; step < depth; step++ {
			op := randomOp(cand, dom, rng)
			if op == nil {
				continue
			}
			if err := op.Apply(cand); err == nil {
				applied++
			}
		}
		if applied == 0 {
			continue
		}
		key := cand.Canonical()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cand)
	}
	return out
}

// randomOp draws one applicable-looking modification for the query.
func randomOp(q *query.Query, dom *stats.Domain, rng *rand.Rand) query.Op {
	vids, eids := q.VertexIDs(), q.EdgeIDs()
	if len(vids) == 0 {
		return nil
	}
	switch rng.Intn(8) {
	case 0: // delete a vertex predicate
		vid := vids[rng.Intn(len(vids))]
		if attr := randKey(q.Vertex(vid).Preds, rng); attr != "" {
			return query.DeletePredicate{On: query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr}}
		}
	case 1: // extend a vertex predicate with a domain value
		vid := vids[rng.Intn(len(vids))]
		if attr := randKey(q.Vertex(vid).Preds, rng); attr != "" {
			if vals := dom.VertexValues[attr]; len(vals) > 0 {
				return query.ExtendPredicate{On: query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr}, Value: vals[rng.Intn(len(vals))]}
			}
		}
	case 2: // shrink a multi-value vertex predicate
		vid := vids[rng.Intn(len(vids))]
		for attr, p := range q.Vertex(vid).Preds {
			if p.Kind == query.Values && len(p.Vals) > 1 {
				return query.ShrinkPredicate{On: query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr}, Value: p.Vals[rng.Intn(len(p.Vals))]}
			}
		}
	case 3: // widen or narrow a range
		vid := vids[rng.Intn(len(vids))]
		for attr, p := range q.Vertex(vid).Preds {
			if p.Kind == query.Range {
				t := query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr}
				if rng.Intn(2) == 0 {
					return query.WidenRange{On: t, Delta: float64(1 + rng.Intn(3))}
				}
				return query.NarrowRange{On: t, Delta: 1}
			}
		}
	case 4: // edge predicate delete / extend
		if len(eids) == 0 {
			return nil
		}
		eid := eids[rng.Intn(len(eids))]
		if attr := randKey(q.Edge(eid).Preds, rng); attr != "" {
			t := query.Target{Kind: query.TargetEdge, ID: eid, Attr: attr}
			if rng.Intn(2) == 0 {
				return query.DeletePredicate{On: t}
			}
			if vals := dom.EdgeValues[attr]; len(vals) > 0 {
				return query.ExtendPredicate{On: t, Value: vals[rng.Intn(len(vals))]}
			}
		}
	case 5: // direction / type changes
		if len(eids) == 0 {
			return nil
		}
		eid := eids[rng.Intn(len(eids))]
		switch rng.Intn(3) {
		case 0:
			return query.DeleteDirection{Edge: eid}
		case 1:
			if len(dom.EdgeTypes) > 0 {
				return query.AddType{Edge: eid, Type: dom.EdgeTypes[rng.Intn(len(dom.EdgeTypes))]}
			}
		default:
			return query.DeleteType{Edge: eid}
		}
	case 6: // topology: delete an edge
		if len(eids) > 1 {
			return query.DeleteEdge{Edge: eids[rng.Intn(len(eids))]}
		}
	case 7: // topology: delete a leaf vertex
		if len(vids) > 2 {
			vid := vids[rng.Intn(len(vids))]
			if q.Degree(vid) <= 1 {
				return query.DeleteVertex{Vertex: vid}
			}
		}
	}
	return nil
}

func randKey(preds map[string]query.Predicate, rng *rand.Rand) string {
	if len(preds) == 0 {
		return ""
	}
	keys := make([]string, 0, len(preds))
	for k := range preds {
		keys = append(keys, k)
	}
	// Deterministic order before the random draw.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[rng.Intn(len(keys))]
}
