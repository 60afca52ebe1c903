// Differential test licensing the derive path of a mutation epoch: a chain of
// write batches is applied once through graph.Fork + core.Engine.Successor —
// on an engine whose caches the previous round's checks warmed, so every
// carried entry is put to the test — and once the old way, to an independent
// Clone that is re-indexed, re-frozen and handed to core.NewEngine. After
// every batch the two sides must be indistinguishable: packed adjacency,
// attribute columns, attribute index, domain catalog, counts, result sets, and
// explanation reports byte for byte.
package repro_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/wire"
	"repro/internal/workload"
)

// batch is one write batch; it is applied to the fork and to the reference
// clone alike, and reports the first failing write.
type batch struct {
	name  string
	apply func(g *graph.Graph) error
	fails bool // a batch meant to be rejected: nothing may be published
}

// deriveChain is the scripted part of the batch chain: each structural case
// the derive path has a branch for, in an order that makes later batches
// depend on earlier ones.
func deriveChain(g *graph.Graph, rng *rand.Rand) []batch {
	nv, ne := g.NumVertices(), g.NumEdges()
	kind := g.Vertex(0).Attrs["type"]
	// rarest is the existing type with the fewest edges; hub the vertex of
	// highest degree, so its removal cascades widely.
	var rarest string
	for t, n := range g.Summary().EdgeTypes {
		if rarest == "" || n < g.TypeEdgeCount(rarest) || n == g.TypeEdgeCount(rarest) && t < rarest {
			rarest = t
		}
	}
	hub := graph.VertexID(0)
	for v := 0; v < nv; v++ {
		if g.Degree(graph.VertexID(v)) > g.Degree(hub) {
			hub = graph.VertexID(v)
		}
	}
	// live is the first vertex at or after v that is not removed.
	live := func(g *graph.Graph, v graph.VertexID) graph.VertexID {
		for g.VertexRemoved(v) {
			v++
		}
		return v
	}
	return []batch{
		{name: "new kind and a new first type", apply: func(g *graph.Graph) error {
			// "!first" sorts before every generated type: all dense ids shift.
			a := g.AddVertex(graph.Attrs{"type": graph.S("derivetest"), "tag": graph.S("a")})
			b := g.AddVertex(graph.Attrs{"type": graph.S("derivetest"), "tag": graph.S("b")})
			g.AddEdge(a, b, "!first", graph.Attrs{"weight": graph.N(1)})
			g.AddEdge(b, live(g, 1), "!first", nil)
			return nil
		}},
		{name: "remove edges of existing types", apply: func(g *graph.Graph) error {
			for _, id := range []graph.EdgeID{0, 7, graph.EdgeID(ne / 2), graph.EdgeID(ne - 1)} {
				if err := g.RemoveEdge(id); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "rejected in the middle", fails: true, apply: func(g *graph.Graph) error {
			g.AddVertex(graph.Attrs{"type": kind})
			g.AddEdge(live(g, 2), live(g, 3), rarest, nil)
			if err := g.RemoveVertex(live(g, 4)); err != nil {
				return err
			}
			return g.RemoveEdge(0) // removed by the batch before
		}},
		{name: "remove the hub, cascading", apply: func(g *graph.Graph) error {
			return g.RemoveVertex(hub)
		}},
		{name: "the new type's last edges disappear", apply: func(g *graph.Graph) error {
			for _, id := range append([]graph.EdgeID(nil), g.EdgesByType("!first")...) {
				if err := g.RemoveEdge(id); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "an existing type disappears", apply: func(g *graph.Graph) error {
			for _, id := range append([]graph.EdgeID(nil), g.EdgesByType(rarest)...) {
				if err := g.RemoveEdge(id); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "vertex count crosses a multiple of 64", apply: func(g *graph.Graph) error {
			// Copies of live vertices, wired like them: the additions land in
			// the candidate lists and counts of the workload queries.
			for want := g.NumVertices() + 64 - g.NumVertices()%64 + 3; g.NumVertices() < want; {
				src := live(g, graph.VertexID(rng.Intn(nv)))
				v := g.AddVertex(g.Vertex(src).Attrs)
				for _, eid := range g.Out(src) {
					g.AddEdge(v, g.Edge(eid).To, g.Edge(eid).Type, g.Edge(eid).Attrs)
				}
				for _, eid := range g.In(src) {
					g.AddEdge(g.Edge(eid).From, v, g.Edge(eid).Type, g.Edge(eid).Attrs)
				}
			}
			return nil
		}},
		{name: "add and remove in one batch", apply: func(g *graph.Graph) error {
			v := g.AddVertex(graph.Attrs{"type": kind, "name": graph.S("ephemeral")})
			e := g.AddEdge(v, live(g, 5), "ephemeral", nil)
			g.AddEdge(live(g, 5), v, g.EdgeTypes()[0], nil)
			if err := g.RemoveEdge(e); err != nil {
				return err
			}
			return g.RemoveVertex(v)
		}},
	}
}

// randomBatch draws a mixed batch of adds and removes over whatever is live.
func randomBatch(rng *rand.Rand, i int) batch {
	return batch{name: fmt.Sprintf("random %d", i), apply: func(g *graph.Graph) error {
		types := g.EdgeTypes()
		liveVertex := func() graph.VertexID {
			for {
				if v := graph.VertexID(rng.Intn(g.NumVertices())); !g.VertexRemoved(v) {
					return v
				}
			}
		}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				g.AddVertex(g.Vertex(liveVertex()).Attrs)
			case 1, 2:
				g.AddEdge(liveVertex(), liveVertex(), types[rng.Intn(len(types))], nil)
			case 3:
				if id := graph.EdgeID(rng.Intn(g.NumEdges())); !g.EdgeRemoved(id) {
					if err := g.RemoveEdge(id); err != nil {
						return err
					}
				}
			default:
				if err := g.RemoveVertex(liveVertex()); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

// deriveProbe is the query set both engines answer after every batch.
type deriveProbe struct {
	named    []workload.Named
	failing  []*query.Query
	variants []*query.Query
}

func newDeriveProbe(t *testing.T, eng *core.Engine, named []workload.Named, failing func(string) (*query.Query, error), seed int64) *deriveProbe {
	t.Helper()
	p := &deriveProbe{named: named}
	for qi, nq := range named {
		fq, err := failing(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		p.failing = append(p.failing, fq)
		p.variants = append(p.variants, workload.RandomExplanations(nq.Build(), eng.Domain(), 13, seed+int64(qi))...)
	}
	if len(p.variants) < 48 {
		t.Fatalf("only %d query variants, want about 50", len(p.variants))
	}
	// Shapes the carry-over filter must always drop: an edge with its type
	// deleted, and a vertex no edge mentions.
	untyped := named[0].Build()
	untyped.Edge(untyped.EdgeIDs()[0]).SetTypes(nil)
	lone := named[0].Build()
	lone.AddVertex(nil)
	p.variants = append(p.variants, untyped, lone)
	return p
}

func explainBlob(t *testing.T, eng *core.Engine, q *query.Query, iv metrics.Interval, budget int) string {
	t.Helper()
	rep, err := eng.Explain(q, core.Options{Expected: iv, Budget: budget, ResultSample: 2 * budget})
	if err != nil {
		return "error: " + err.Error()
	}
	blob, err := json.Marshal(wire.FromReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// compare requires the derived engine and the from-scratch reference to be
// indistinguishable. values collects every indexed value seen so far, so
// buckets that should have emptied are probed too.
func (p *deriveProbe) compare(t *testing.T, when string, derived, ref *core.Engine, values map[string]map[graph.Value]bool) {
	t.Helper()
	dg, rg := derived.Graph(), ref.Graph()
	dc, rc := dg.FrozenCSR(), rg.FrozenCSR()
	if !slices.Equal(dc.OutOff, rc.OutOff) || !slices.Equal(dc.InOff, rc.InOff) ||
		!slices.Equal(dc.OutAdj, rc.OutAdj) || !slices.Equal(dc.InAdj, rc.InAdj) ||
		!slices.Equal(dc.TypeNames, rc.TypeNames) {
		t.Fatalf("%s: derived CSR differs from Freeze's", when)
	}
	for _, typ := range rc.TypeNames {
		di, _ := dg.TypeID(typ)
		ri, _ := rg.TypeID(typ)
		if di != ri {
			t.Fatalf("%s: type %q has dense id %d, want %d", when, typ, di, ri)
		}
	}
	if !slices.Equal(dg.IndexedKeys(), rg.IndexedKeys()) {
		t.Fatalf("%s: indexed keys %v, want %v", when, dg.IndexedKeys(), rg.IndexedKeys())
	}
	for _, key := range rg.IndexedKeys() {
		if values[key] == nil {
			values[key] = make(map[graph.Value]bool)
		}
		for v := 0; v < rg.NumVertices(); v++ {
			if val, ok := rg.Vertex(graph.VertexID(v)).Attrs[key]; ok {
				values[key][val] = true
			}
		}
		for val := range values[key] {
			got, _ := dg.VerticesByAttr(key, val)
			want, _ := rg.VerticesByAttr(key, val)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: index bucket %s=%v is %v, want %v", when, key, val, got, want)
			}
		}
	}
	// The attribute columns, by what they decode to (a derived dictionary
	// keeps its numbering): the derived ones, Freeze's, and the attribute maps
	// agree on every element and key; a tombstone has no value anywhere.
	sameColumns := func(kind string, derived, frozen map[string]*graph.Column, n int, attrs func(id int) graph.Attrs) {
		t.Helper()
		for _, cols := range []map[string]*graph.Column{derived, frozen} {
			for key, col := range cols {
				if len(col.Codes) != n {
					t.Fatalf("%s: %s column %q has %d codes for %d elements", when, kind, key, len(col.Codes), n)
				}
				for id, code := range col.Codes {
					want, carried := attrs(id)[key]
					if got := col.Vals[code]; (code != 0) != carried || carried && got != want {
						t.Fatalf("%s: %s %d: column %q reads %v (code %d), the attribute map says %v (present: %v)", when, kind, id, key, got, code, want, carried)
					}
				}
			}
		}
		for id := 0; id < n; id++ {
			for key := range attrs(id) {
				if derived[key] == nil || frozen[key] == nil {
					t.Fatalf("%s: %s %d carries %q, which has no column", when, kind, id, key)
				}
			}
		}
	}
	sameColumns("vertex", dg.VertexColumns(), rg.VertexColumns(), rg.NumVertices(), func(id int) graph.Attrs {
		return rg.Vertex(graph.VertexID(id)).Attrs // nil once removed
	})
	sameColumns("edge", dg.EdgeColumns(), rg.EdgeColumns(), rg.NumEdges(), func(id int) graph.Attrs {
		if rg.EdgeRemoved(graph.EdgeID(id)) {
			return nil
		}
		return rg.Edge(graph.EdgeID(id)).Attrs
	})
	// The catalogs; the frequency tables behind them (which BuildDomain does
	// not keep) are held to a rebuild by internal/stats' TestDeriveDomain.
	dd, rd := derived.Domain(), ref.Domain()
	if !reflect.DeepEqual(dd.VertexValues, rd.VertexValues) || !reflect.DeepEqual(dd.VertexValuesByType, rd.VertexValuesByType) ||
		!reflect.DeepEqual(dd.EdgeValues, rd.EdgeValues) || !reflect.DeepEqual(dd.EdgeTypes, rd.EdgeTypes) {
		t.Fatalf("%s: derived domain differs from BuildDomain's:\n%+v\nwant\n%+v", when, dd, rd)
	}

	dm, rm := derived.Matcher(), ref.Matcher()
	// budget is the explanation's search budget: small on the ~50 variants,
	// whose relaxations count explosively, larger on the workload queries.
	answers := func(what string, q *query.Query, iv metrics.Interval, budget int, caps ...int) {
		t.Helper()
		for _, cap := range append(caps, 4*iv.Upper, diffCountCap) {
			if got, want := dm.Count(q, cap), rm.Count(q, cap); got != want {
				t.Fatalf("%s: %s: count (cap %d) %d, want %d\n%s", when, what, cap, got, want, q)
			}
		}
		got, want := dm.Find(q, match.Options{Limit: 200}), rm.Find(q, match.Options{Limit: 200})
		match.SortResults(got)
		match.SortResults(want)
		if err := sameResultSets(got, want); err != nil {
			t.Fatalf("%s: %s: %v", when, what, err)
		}
		if got, want := explainBlob(t, derived, q, iv, budget), explainBlob(t, ref, q, iv, budget); got != want {
			t.Fatalf("%s: %s: explanation differs:\n%s\nwant\n%s", when, what, got, want)
		}
	}
	for i, nq := range p.named {
		answers(nq.Name, nq.Build(), metrics.Interval{Lower: 1, Upper: 3}, 40, 0)
		answers(nq.Name+" failing", p.failing[i], metrics.AtLeastOne, 40)
		if got, want := dm.Count(nq.Build(), 0), rm.ReferenceCount(nq.Build(), 0); got != want {
			t.Fatalf("%s: %s: count %d, reference engine says %d", when, nq.Name, got, want)
		}
	}
	for i, q := range p.variants {
		answers(fmt.Sprintf("variant %d", i), q, metrics.Interval{Lower: 1, Upper: 3}, 12)
		if i%8 == 0 {
			if got, want := dm.Count(q, diffCountCap), rm.ReferenceCount(q, diffCountCap); got != want {
				t.Fatalf("%s: variant %d: count %d, reference engine says %d", when, i, got, want)
			}
		}
	}
}

func runDeriveDifferential(t *testing.T, g *repro.Graph, named []workload.Named, failing func(string) (*query.Query, error), seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rg := g.Clone()
	rg.BuildVertexIndex(g.IndexedKeys()...)
	derived, ref := core.NewEngine(g), core.NewEngine(rg)
	probe := newDeriveProbe(t, derived, named, failing, seed)
	values := make(map[string]map[graph.Value]bool)
	probe.compare(t, "boot", derived, ref, values)

	chain := deriveChain(g, rng)
	for i := 0; i < 4; i++ {
		chain = append(chain, randomBatch(rng, i))
	}
	carried := 0
	for _, b := range chain {
		// Both sides draw the same random numbers.
		state := rng.Int63()
		rng.Seed(state)
		fork := derived.Graph().Fork()
		errFork := b.apply(fork)
		rng.Seed(state)
		clone := ref.Graph().Clone()
		errClone := b.apply(clone)
		if (errFork == nil) != (errClone == nil) || b.fails != (errFork != nil) {
			t.Fatalf("%s: fork says %v, clone says %v, batch should fail: %v", b.name, errFork, errClone, b.fails)
		}
		if b.fails {
			// Nothing is published, and the discarded fork shows nowhere in
			// the engine it was forked from.
			probe.compare(t, "after rejected batch "+b.name, derived, ref, values)
			continue
		}
		derived = derived.Successor(fork)
		_, _, entries := derived.Matcher().CountCacheStats()
		carried += entries
		clone.BuildVertexIndex(ref.Graph().IndexedKeys()...)
		clone.Freeze()
		ref = core.NewEngine(clone)
		probe.compare(t, "after "+b.name, derived, ref, values)
	}
	if carried == 0 {
		t.Fatal("no successor ever started with a carried count: the differential did not test the carry-over")
	}
}

func TestDeriveDifferentialLDBC(t *testing.T) {
	lg, _ := setup()
	runDeriveDifferential(t, lg, workload.LDBCQueries(), workload.FailingVariant, 3003)
}

func TestDeriveDifferentialDBpedia(t *testing.T) {
	_, dg := setup()
	runDeriveDifferential(t, dg, workload.DBpediaQueries(), workload.DBpediaFailingVariant, 4004)
}

// runCarryOverProperty checks the soundness of the carry-over filter as a
// property of random (query, batch) pairs: every batch is forked off the same
// warmed engine, and on the successor every probe query must count what a
// matcher built from scratch over the same graph counts — in particular
// whenever the answer is a hit on a carried entry. Two shapes may never be
// answered from a carried entry once the batch touched what they can bind: an
// edge without type constraint (any edge) and a vertex no edge mentions (any
// vertex). The tallies at the end keep the property from holding vacuously.
func runCarryOverProperty(t *testing.T, g *repro.Graph, named []workload.Named, failing func(string) (*query.Query, error), seed int64) {
	rng := rand.New(rand.NewSource(seed))
	boot := core.NewEngine(g)
	probe := newDeriveProbe(t, boot, named, failing, seed)
	// Distinct queries only: a repeat would hit the entry its first occurrence
	// just stored, not a carried one.
	all := append([]*query.Query(nil), probe.failing...)
	for _, nq := range named {
		all = append(all, nq.Build())
	}
	all = append(all, probe.variants...)
	untypedKey, loneKey := all[len(all)-2].Key(), all[len(all)-1].Key() // newDeriveProbe's last two
	var queries []*query.Query
	seen := make(map[string]bool)
	for _, q := range all {
		if !seen[q.Key()] {
			seen[q.Key()] = true
			queries = append(queries, q)
			boot.Matcher().Count(q, diffCountCap)
		}
	}

	kept, dropped := 0, 0
	for round := 0; round < 12; round++ {
		fork := boot.Graph().Fork()
		if err := randomBatch(rng, round).apply(fork); err != nil {
			t.Fatal(err)
		}
		vertices := fork.NumVertices() != g.NumVertices() || fork.NumRemovedVertices() != g.NumRemovedVertices()
		edges := fork.NumEdges() != g.NumEdges() || fork.NumRemovedEdges() != g.NumRemovedEdges()
		succ := boot.Successor(fork)
		scratch := fork.Clone()
		scratch.BuildVertexIndex(g.IndexedKeys()...)
		truth := match.New(scratch)
		for i, q := range queries {
			before, _, _ := succ.Matcher().CountCacheStats()
			got := succ.Matcher().Count(q, diffCountCap)
			after, _, _ := succ.Matcher().CountCacheStats()
			hit := after > before
			if want := truth.Count(q, diffCountCap); got != want {
				t.Fatalf("round %d, query %d (carried: %v): count %d, from scratch %d\n%s", round, i, hit, got, want, q)
			}
			if hit && (q.Key() == untypedKey && edges || q.Key() == loneKey && vertices) {
				t.Fatalf("round %d: query %d answered from a carried entry although the batch touched what it binds\n%s", round, i, q)
			}
			if hit {
				kept++
			} else {
				dropped++
			}
		}
	}
	t.Logf("%d counts answered from carried entries, %d recounted", kept, dropped)
	if kept == 0 || dropped == 0 {
		t.Fatalf("%d counts carried, %d recounted: the property was not exercised both ways", kept, dropped)
	}
}

func TestCarryOverFootprintLDBC(t *testing.T) {
	lg, _ := setup()
	runCarryOverProperty(t, lg, workload.LDBCQueries(), workload.FailingVariant, 5005)
}

func TestCarryOverFootprintDBpedia(t *testing.T) {
	_, dg := setup()
	runCarryOverProperty(t, dg, workload.DBpediaQueries(), workload.DBpediaFailingVariant, 6006)
}
