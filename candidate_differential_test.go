// Candidate-level differential for the search bookkeeping: what a rewriting
// search computes per generated candidate — its score from statistics keyed
// off its own canonical key, the induced change against one estimate of its
// parent, its distance against the search's root clone — must equal, with ==,
// what was computed before candidates shared storage: an estimate per
// component over freshly encoded fragment keys, the parent re-estimated and
// deep-cloned per child, a distance walked element by element against the
// caller's query. Those older forms are kept here as ref*, on the public
// per-statistic API. Whole reports must not depend on the worker count or
// the plan cache either.
package repro_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/stats"
	"repro/internal/workload"
)

// refEstimateCardinality is stats.Collector.EstimateCardinality as it was
// before the one-pass keyed form: component by component.
func refEstimateCardinality(c *stats.Collector, q *query.Query) float64 {
	comps := q.WeaklyConnectedComponents()
	total := 1.0
	for _, comp := range comps {
		total *= refEstimateComponent(c, q, comp)
		if total == 0 {
			return 0
		}
	}
	return total
}

func refEstimateComponent(c *stats.Collector, q *query.Query, comp []int) float64 {
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	var edges []int
	for _, eid := range q.EdgeIDs() {
		if inComp[q.Edge(eid).From] {
			edges = append(edges, eid)
		}
	}
	if len(edges) == 0 {
		// Isolated vertex component.
		return float64(c.VertexCardinality(q.Vertex(comp[0])))
	}
	// Spanning tree via union-find over the component's edges.
	parent := make(map[int]int, len(comp))
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, v := range comp {
		parent[v] = v
	}
	est := 1.0
	treeDeg := make(map[int]int, len(comp))
	for _, eid := range edges {
		e := q.Edge(eid)
		p1 := float64(c.Path1Cardinality(q, eid))
		a, b := find(e.From), find(e.To)
		if a != b {
			// Tree edge: joins two partial results.
			parent[a] = b
			est *= p1
			treeDeg[e.From]++
			treeDeg[e.To]++
		} else {
			// Cycle-closing edge: apply its selectivity.
			cf := float64(c.VertexCardinality(q.Vertex(e.From)))
			ct := float64(c.VertexCardinality(q.Vertex(e.To)))
			if cf == 0 || ct == 0 {
				return 0
			}
			est *= p1 / (cf * ct)
		}
	}
	// Normalize shared tree vertices: a vertex joining k tree edges was
	// counted k times; divide by cand(v)^(k-1).
	for _, v := range comp {
		if k := treeDeg[v]; k > 1 {
			cv := float64(c.VertexCardinality(q.Vertex(v)))
			if cv == 0 {
				return 0
			}
			est /= math.Pow(cv, float64(k-1))
		}
	}
	return est
}

// refAveragePath1Cardinality is stats.Collector.AveragePath1Cardinality as it
// was: a second round of Path(1) lookups.
func refAveragePath1Cardinality(c *stats.Collector, q *query.Query) float64 {
	ids := q.EdgeIDs()
	if len(ids) == 0 {
		// A query without edges: fall back to the mean vertex cardinality.
		vids := q.VertexIDs()
		if len(vids) == 0 {
			return 0
		}
		var sum float64
		for _, vid := range vids {
			sum += float64(c.VertexCardinality(q.Vertex(vid)))
		}
		return sum / float64(len(vids))
	}
	var sum float64
	for _, eid := range ids {
		sum += float64(c.Path1Cardinality(q, eid))
	}
	return sum / float64(len(ids))
}

// refInducedChange is stats.Collector.InducedChange as the coarse search
// called it per child: the parent estimated again, and deep-cloned to apply
// an operation whose result the search already held.
func refInducedChange(c *stats.Collector, q *query.Query, op query.Op) float64 {
	before := refEstimateCardinality(c, q)
	after, err := query.Apply(q, op)
	if err != nil {
		return 1
	}
	ea := refEstimateCardinality(c, after)
	if before <= 0 {
		if ea > 0 {
			return math.Inf(1)
		}
		return 1
	}
	return ea / before
}

// refScore is relax's PriorityCombined score as it was computed.
func refScore(c *stats.Collector, parent, child *query.Query, op query.Op) float64 {
	induced := refInducedChange(c, parent, op)
	if math.IsInf(induced, 1) {
		induced = 1e9
	}
	return refAveragePath1Cardinality(c, child) * induced
}

// refSyntacticDistance is metrics.SyntacticDistance as it was — id lists per
// query, IN/OUT lists per vertex, every element walked — except that the
// attributes of an element are summed in ascending order, where it followed
// the map iterator and so had no single value to compare with.
func refSyntacticDistance(q1, q2 *query.Query) float64 {
	vUnion := refUnionInts(q1.VertexIDs(), q2.VertexIDs())
	eUnion := refUnionInts(q1.EdgeIDs(), q2.EdgeIDs())
	if len(vUnion)+len(eUnion) == 0 {
		return 0
	}
	var total float64
	for _, vid := range vUnion {
		total += refVertexDistance(q1, q2, vid)
	}
	for _, eid := range eUnion {
		total += refEdgeDistance(q1, q2, eid)
	}
	return total / float64(len(vUnion)+len(eUnion))
}

func refVertexDistance(q1, q2 *query.Query, vid int) float64 {
	v1, v2 := q1.Vertex(vid), q2.Vertex(vid)
	if v1 == nil || v2 == nil {
		return 1
	}
	keys := refUnionPredKeys(v1.Preds, v2.Preds)
	var sum float64
	for _, k := range keys {
		sum += refPredKeyDistance(v1.Preds, v2.Preds, k)
	}
	sum += metrics.MHDInts(q1.In(vid), q2.In(vid))
	sum += metrics.MHDInts(q1.Out(vid), q2.Out(vid))
	return sum / float64(len(keys)+2)
}

func refEdgeDistance(q1, q2 *query.Query, eid int) float64 {
	e1, e2 := q1.Edge(eid), q2.Edge(eid)
	if e1 == nil || e2 == nil {
		return 1
	}
	keys := refUnionPredKeys(e1.Preds, e2.Preds)
	var sum float64
	for _, k := range keys {
		sum += refPredKeyDistance(e1.Preds, e2.Preds, k)
	}
	sum += metrics.MHDStrings(e1.Types, e2.Types)
	sum += refDirDistance(e1.Dirs, e2.Dirs)
	if e1.From != e2.From {
		sum++
	}
	if e1.To != e2.To {
		sum++
	}
	return sum / float64(len(keys)+4)
}

func refPredKeyDistance(p1, p2 map[string]query.Predicate, key string) float64 {
	a, ok1 := p1[key]
	b, ok2 := p2[key]
	switch {
	case ok1 && ok2:
		return a.Distance(b)
	case !ok1 && !ok2:
		return 0
	default:
		return 1
	}
}

func refDirDistance(a, b query.Dir) float64 {
	var as, bs []int
	if a.Has(query.Forward) {
		as = append(as, 0)
	}
	if a.Has(query.Backward) {
		as = append(as, 1)
	}
	if b.Has(query.Forward) {
		bs = append(bs, 0)
	}
	if b.Has(query.Backward) {
		bs = append(bs, 1)
	}
	return metrics.MHDInts(as, bs)
}

func refUnionInts(a, b []int) []int {
	out := slices.Clone(a)
	for _, x := range b {
		if !slices.Contains(a, x) {
			out = append(out, x)
		}
	}
	return out
}

func refUnionPredKeys(a, b map[string]query.Predicate) []string {
	out := make([]string, 0, len(a)+len(b))
	for k := range a {
		out = append(out, k)
	}
	for k := range b {
		if _, both := a[k]; !both {
			out = append(out, k)
		}
	}
	sort.Strings(out) // the one departure: see refSyntacticDistance
	return out
}

// candidateOps enumerates what the two rewriting searches may apply to q:
// the fine-grained relaxations and concretizations (modtree's own
// enumeration, which with topology and a domain reaches every operation type
// but one) and the coarse type deletions.
func candidateOps(mt *modtree.Searcher, q *query.Query, dom *stats.Domain, topology bool) []query.Op {
	ops := mt.Modifications(q, 0, modtree.Options{AllowTopology: topology, Domain: dom, ValuesPerPredicate: 2})
	for _, e := range q.Edges() {
		ops = append(ops, query.DeleteType{Edge: e.ID})
	}
	return ops
}

// sharedElements counts the elements two queries hold by the same pointer.
func sharedElements(a, b *query.Query) (n int) {
	for _, v := range a.Vertices() {
		if b.Vertex(v.ID) == v {
			n++
		}
	}
	for _, e := range a.Edges() {
		if b.Edge(e.ID) == e {
			n++
		}
	}
	return n
}

// candidateFingerprint renders everything a report says, floats in full.
func candidateFingerprint(rep *repro.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v card=%d fine=%v executed=%d trace=%v", rep.Problem, rep.Cardinality, rep.FineGrained, rep.Executed, rep.Trace)
	if rep.Subgraph != nil {
		fmt.Fprintf(&b, "\n%s", mcsFingerprint(*rep.Subgraph))
	}
	for _, rw := range rep.Rewritings {
		fmt.Fprintf(&b, "\ncard=%d syn=%v cardΔ=%d resΔ=%v ops=%v\n%s", rw.Cardinality, rw.Syntactic, rw.CardinalityDistance, rw.ResultDistance, rw.Ops, rw.Query.Canonical())
	}
	return b.String()
}

func TestCandidateDifferential(t *testing.T) {
	lg, dg := setup()
	for _, ds := range []struct {
		name string
		g    *repro.Graph
		base []workload.Named
	}{
		{"ldbc", lg, workload.LDBCQueries()},
		{"dbpedia", dg, workload.DBpediaQueries()},
	} {
		eng := repro.NewEngine(ds.g)
		eng.SetWorkers(1)
		wide := repro.NewEngine(ds.g)
		wide.SetWorkers(4)
		uncached := repro.NewEngine(ds.g)
		uncached.SetWorkers(2)
		uncached.Matcher().SetPlanCache(false)
		st, ref := eng.Stats(), stats.New(eng.Matcher()) // the references fill a collector of their own
		mt := modtree.New(eng.Matcher(), st)
		rw := relax.New(eng.Matcher(), st)
		corpus := scoringCorpus(t, ds.name, eng.Matcher(), eng.Domain(), ds.base, 110)
		if len(corpus) < 8+100 {
			t.Fatalf("%s: corpus of %d cases, want the 8 hot specs and at least 100 variants", ds.name, len(corpus))
		}
		scored, sliced, skipped, solutions := 0, 0, 0, 0
		for _, c := range corpus {
			// Whole reports: one worker ≡ four ≡ no plan cache.
			rep, err := eng.Explain(c.q, c.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", ds.name, c.name, err)
			}
			for name, other := range map[string]*repro.Engine{"4 workers": wide, "no plan cache": uncached} {
				orep, err := other.Explain(c.q, c.opts)
				if err != nil {
					t.Fatalf("%s %s (%s): %v", ds.name, c.name, name, err)
				}
				if got, want := candidateFingerprint(orep), candidateFingerprint(rep); got != want {
					t.Errorf("%s %s: %s changed the report:\n--- 1 worker\n%s\n--- %s\n%s", ds.name, c.name, name, want, name, got)
				}
			}
			for _, r := range rep.Rewritings {
				if want := refSyntacticDistance(c.q, r.Query); r.Syntactic != want {
					t.Errorf("%s %s %v: reported syntactic distance %v, reference %v", ds.name, c.name, r.Ops, r.Syntactic, want)
				}
			}
			// The coarse search's own scores, where it shows them: a
			// solution was scheduled under the score of its last operation.
			out := rw.Rewrite(c.q, relax.Options{Priority: relax.PriorityCombined, AllowTopology: c.opts.AllowTopology, MaxDepth: 2})
			for _, s := range out.Solutions {
				parent, err := query.Apply(c.q, s.Ops[:len(s.Ops)-1]...)
				if err != nil {
					t.Fatal(err)
				}
				if want := refScore(ref, parent, s.Query, s.Ops[len(s.Ops)-1]); s.Score != want {
					t.Errorf("%s %s: solution %v scheduled under score %v, reference %v", ds.name, c.name, s.Ops, s.Score, want)
				}
				if want := refSyntacticDistance(c.q, s.Query); s.Syntactic != want {
					t.Errorf("%s %s: solution %v at distance %v, reference %v", ds.name, c.name, s.Ops, s.Syntactic, want)
				}
				solutions++
			}

			// Every child of two levels of expansions from the search's root
			// clone, generated the way the searches generate them.
			type cand struct {
				q   *query.Query
				key string
			}
			root := cand{c.q.Clone(), c.q.Key()}
			level := []cand{root}
			for depth := 0; depth < 2; depth++ {
				var next []cand
				for _, p := range level[:min(len(level), 2)] {
					before, _ := st.Estimates(p.q, p.key)
					if want := refEstimateCardinality(ref, p.q); before != want {
						t.Fatalf("%s %s: parent estimate %v, reference %v\n%s", ds.name, c.name, before, want, p.q)
					}
					for _, op := range candidateOps(mt, p.q, eng.Domain(), c.opts.AllowTopology) {
						child, key, err := query.ApplyKeyed(p.q, p.key, op)
						if err != nil {
							continue
						}
						est, avg := st.Estimates(child, key)
						if we, wa := refEstimateCardinality(ref, child), refAveragePath1Cardinality(ref, child); est != we || avg != wa {
							t.Fatalf("%s %s after %s: keyed estimate %v, average Path(1) %v; reference %v, %v\n%s", ds.name, c.name, op, est, avg, we, wa, child)
						}
						induced := stats.InducedRatio(before, est)
						if want := refInducedChange(ref, p.q, op); induced != want {
							t.Fatalf("%s %s after %s: induced change %v, reference %v", ds.name, c.name, op, induced, want)
						}
						if math.IsInf(induced, 1) {
							induced = 1e9
						}
						if score, want := avg*induced, refScore(ref, p.q, child, op); score != want {
							t.Fatalf("%s %s after %s: score %v, reference %v", ds.name, c.name, op, score, want)
						}
						scored++
						// Fragment keys cut out of the candidate's key.
						offs, ok := query.AppendRecordOffsets(nil, key)
						if !ok {
							t.Fatalf("%s %s after %s: malformed key %q", ds.name, c.name, op, key)
						}
						for _, e := range child.Edges() {
							ids := []int{e.ID}
							cut := child.AppendKeyRecordsByEdges(nil, []byte(key), offs, ids)
							if want := child.SubqueryByEdges(ids).AppendKey(nil); string(cut) != string(want) {
								t.Fatalf("%s %s after %s: Path(1) key of e%d cut from the candidate key %q, subquery key %q", ds.name, c.name, op, e.ID, cut, want)
							}
							sliced++
						}
						// The distance against the root clone, which skips
						// what the child shares with it, against the
						// reference walking everything of the caller's query.
						if d, want := metrics.SyntacticDistance(root.q, child), refSyntacticDistance(c.q, child); d != want {
							t.Fatalf("%s %s after %s: distance %v against the root clone, reference %v against the query\n%s", ds.name, c.name, op, d, want, child)
						}
						skipped += sharedElements(root.q, child)
						next = append(next, cand{child, key})
					}
				}
				level = next
			}
		}
		t.Logf("%s: %d cases, %d children scored, %d fragment keys cut, %d shared elements skipped, %d solution scores", ds.name, len(corpus), scored, sliced, skipped, solutions)
		if scored < 1000 || sliced < 1000 || skipped < 1000 || solutions == 0 {
			t.Errorf("%s: %d children scored, %d fragment keys cut, %d shared elements skipped, %d solution scores — the corpus proves too little",
				ds.name, scored, sliced, skipped, solutions)
		}
	}
}

// TestCandidateSharingRace: the siblings of one parent share its untouched
// elements and predicate values, and are read from many goroutines at once —
// the pool workers key, score, measure and count them — while the search
// goroutine derives their children. Nothing may write what is shared; run
// under -race -count=10.
func TestCandidateSharingRace(t *testing.T) {
	lg, _ := setup()
	eng := repro.NewEngine(lg)
	m, st := eng.Matcher(), eng.Stats()
	mt := modtree.New(m, st)
	root := failingVariantFor(t, "ldbc", "LDBC QUERY 2").Clone()
	rootKey := root.Key()
	type cand struct {
		q   *query.Query
		key string
	}
	var siblings []cand
	for _, op := range candidateOps(mt, root, eng.Domain(), true) {
		if child, key, err := query.ApplyKeyed(root, rootKey, op); err == nil {
			siblings = append(siblings, cand{child, key})
		}
	}
	if len(siblings) < 8 {
		t.Fatalf("only %d siblings", len(siblings))
	}
	var wg sync.WaitGroup
	for _, read := range []func(cand){
		func(c cand) {
			if c.q.Key() != c.key {
				t.Errorf("key changed under a reader:\n%s", c.q)
			}
		},
		func(c cand) { st.Estimates(c.q, c.key) },
		func(c cand) { metrics.SyntacticDistance(root, c.q) },
		func(c cand) { m.Count(c.q, 100) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, c := range siblings {
					read(c)
				}
			}
		}()
	}
	grandchildren := 0
	for _, c := range siblings {
		for _, op := range candidateOps(mt, c.q, eng.Domain(), true) {
			if g, key, err := query.ApplyKeyed(c.q, c.key, op); err == nil {
				if g.Key() != key {
					t.Errorf("grandchild key diverged after %s", op)
				}
				grandchildren++
			}
		}
	}
	wg.Wait()
	if grandchildren < len(siblings) {
		t.Fatalf("only %d grandchildren derived", grandchildren)
	}
	for _, c := range siblings {
		if c.q.Key() != c.key {
			t.Errorf("a sibling changed while its children were derived:\n%s", c.q)
		}
	}
	if root.Key() != rootKey {
		t.Error("the parent changed")
	}
}
