// Command benchrunner regenerates every table and figure of the thesis'
// evaluation (Ch. 3–6, App. A) on the synthetic data sets. Each series is
// defined once, here, as a function that returns typed rows. Their
// deterministic columns are in the thesis' cost currency; runtimes and
// cache counters are printed beside them and compared with nothing. The
// package's test pins those columns of `-exp all` in testdata/figures.golden
// and asserts each series' qualitative claim.
//
// Usage:
//
//	benchrunner [-exp all | tab-a1 | fig3.7 | fig3.8 | fig3.9 | fig3.10 |
//	             fig4.discover | fig4.size | fig4.bounded | fig5.priority |
//	             fig5.convergence | fig5.induced | fig5.user |
//	             fig5.resources | fig6.baseline | fig6.topology]
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mcs"
	"repro/internal/metrics"
	"repro/internal/modtree"
	"repro/internal/query"
	"repro/internal/relax"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/workload"
)

// data is one evaluation data set, built once and only read by the series:
// the graph, its value domain, and its built-in queries with their why-empty
// variants.
type data struct {
	g       *graph.Graph
	dom     *stats.Domain
	queries []workload.Named
	failing []*query.Query // failing[i] is queries[i] with one constraint made unsatisfiable
}

// datasets are the two data sets of App. A.
type datasets struct{ ldbc, dbpedia *data }

func load() (*datasets, error) {
	ds := &datasets{
		ldbc:    &data{g: datagen.LDBC(datagen.DefaultLDBC()), queries: workload.LDBCQueries()},
		dbpedia: &data{g: datagen.DBpedia(datagen.DefaultDBpedia()), queries: workload.DBpediaQueries()},
	}
	for d, failingVariant := range map[*data]func(string) (*query.Query, error){ds.ldbc: workload.FailingVariant, ds.dbpedia: workload.DBpediaFailingVariant} {
		d.dom = stats.BuildDomain(d.g, 16)
		for _, nq := range d.queries {
			q, err := failingVariant(nq.Name)
			if err != nil {
				return nil, err
			}
			d.failing = append(d.failing, q)
		}
	}
	return ds, nil
}

// env is what one series runs on: a matcher and statistics collector of its
// own per data set, so that no series reads cache state another left behind,
// and one search-kernel counter sink per explanation family.
type env struct {
	ldbc, dbpedia          *source
	kRelax, kModtree, kMCS search.Metrics
}

// source is a shared data set with one series' matcher over it.
type source struct {
	*data
	m  *match.Matcher
	st *stats.Collector
}

func newEnv(ds *datasets) *env {
	src := func(d *data) *source {
		m := match.New(d.g)
		return &source{data: d, m: m, st: stats.New(m)}
	}
	return &env{ldbc: src(ds.ldbc), dbpedia: src(ds.dbpedia)}
}

// counters summarizes the matcher-level cache counters of both data sets and
// the search-kernel counters per explanation family, as one series left
// them. Kernel counters read executions(x) / dedup hits(h).
func (e *env) counters() string {
	ch, cm := 0, 0
	for _, s := range []*source{e.ldbc, e.dbpedia} {
		h, m, _ := s.m.CountCacheStats()
		ch, cm = ch+h, cm+m
	}
	k := func(name string, m *search.Metrics) string {
		c := m.Snapshot()
		return fmt.Sprintf("%s %dx/%dh", name, c.Executions, c.DedupHits)
	}
	return fmt.Sprintf("count-cache %dh/%dm; kernel %s, %s, %s",
		ch, cm, k("relax", &e.kRelax), k("modtree", &e.kModtree), k("mcs", &e.kMCS))
}

// experiment is one table or figure. run returns its rows: a slice of
// structs whose fields are the printed columns, headed by their `col` tag or
// lower-cased name. A time.Duration field is a runtime, printed beside the
// figure and never pinned.
type experiment struct {
	id, title string
	run       func(*env) any
}

// experiments lists every series in the thesis' order, the order of
// `-exp all`.
var experiments = []experiment{
	{"tab-a1", "TAB-A1: LDBC query cardinalities (Table A.1)", func(e *env) any { return tabA1(e) }},
	{"fig3.7", "FIG-3.7: syntactic distances of random explanations", func(e *env) any { return fig37(e) }},
	{"fig3.8", "FIG-3.8: result distances of random explanations", func(e *env) any { return fig38(e) }},
	{"fig3.9", "FIG-3.9: cardinality distances of random explanations", func(e *env) any { return fig39(e) }},
	{"fig3.10", "FIG-3.10: avg result distance vs syntactic-distance interval", func(e *env) any { return fig310(e) }},
	{"fig4.discover", "FIG-4.A: DISCOVERMCS — naive vs WCC vs single-path", func(e *env) any { return fig4Discover(e) }},
	{"fig4.size", "FIG-4.B: DISCOVERMCS cost vs query size (failing chains)", func(e *env) any { return fig4Size(e) }},
	{"fig4.bounded", "FIG-4.C: BOUNDEDMCS under too-many thresholds", func(e *env) any { return fig4Bounded(e) }},
	{"fig5.priority", "FIG-5.A: priority functions of the query-candidate selector", func(e *env) any { return fig5Priority(e) }},
	{"fig5.convergence", "FIG-5.B: runtime convergence (LDBC QUERY 2 why-empty)", func(e *env) any { return fig5Convergence(e) }},
	{"fig5.induced", "FIG-5.C: avg Path(1) + induced-change priority comparison", func(e *env) any { return fig5Induced(e) }},
	{"fig5.user", "FIG-5.D: user integration — proposals until acceptance", func(e *env) any { return fig5User(e) }},
	{"fig5.resources", "FIG-5.E: resource consumption of why-empty rewriting", func(e *env) any { return fig5Resources(e) }},
	{"fig6.baseline", "FIG-6.A: fine-grained modification vs baselines", func(e *env) any { return fig6Baseline(e) }},
	{"fig6.topology", "FIG-6.B: TST with and without topology modifications", func(e *env) any { return fig6Topology(e) }},
}

func main() {
	exp := flag.String("exp", "all", "experiment id, or all (see doc comment)")
	flag.Parse()
	xs := slices.DeleteFunc(slices.Clone(experiments), func(x experiment) bool { return *exp != "all" && x.id != *exp })
	if len(xs) == 0 {
		ids := []string{"all"}
		for _, x := range experiments {
			ids = append(ids, x.id)
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, strings.Join(ids, ", "))
		os.Exit(2)
	}
	ds, err := load()
	if err == nil {
		err = write(os.Stdout, ds, xs, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// write runs the experiments in order, each on an env of its own over ds,
// and prints their rows as tables. Runtimes and cache counters are printed
// only when timed.
func write(w io.Writer, ds *datasets, xs []experiment, timed bool) error {
	for _, x := range xs {
		e := newEnv(ds)
		rs := reflect.ValueOf(x.run(e))
		title := x.title
		if timed {
			title += " (" + e.counters() + ")"
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "== %s ==\n", title)
		for i := range rs.Len() {
			r := rs.Index(i)
			var head, line []string
			for j := range r.NumField() {
				var c string
				switch v := r.Field(j).Interface().(type) {
				case time.Duration:
					if !timed {
						continue
					}
					c = v.Round(time.Microsecond).String()
				case float64:
					c = fmt.Sprintf("%.3f", v)
				default:
					c = fmt.Sprint(v)
				}
				f := r.Type().Field(j)
				head, line = append(head, cmp.Or(f.Tag.Get("col"), strings.ToLower(f.Name))), append(line, c)
			}
			if i == 0 {
				fmt.Fprintln(tw, strings.Join(head, "\t"))
			}
			fmt.Fprintln(tw, strings.Join(line, "\t"))
		}
		fmt.Fprintln(tw)
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// factor is a cardinality factor (§3.2.5), printed as the thesis writes it.
type factor float64

func (f factor) String() string { return fmt.Sprintf("%.1f", float64(f)) }

type tabA1Row struct {
	Query    string
	PaperC1  int `col:"paper C1"`
	Measured int
}

// tabA1 reproduces Table A.1: original cardinalities of LDBC QUERY 1–4.
func tabA1(e *env) []tabA1Row {
	var rs []tabA1Row
	for _, nq := range e.ldbc.queries {
		rs = append(rs, tabA1Row{nq.Name, nq.PaperC1, e.ldbc.m.Count(nq.Build(), 0)})
	}
	return rs
}

// distRow summarizes one series of distances of random explanations; the
// figures plot the series ordered.
type distRow struct {
	Series                        string
	N                             int
	Min, P25, Med, P75, Max, Mean float64
}

func summarize(series string, xs []float64) distRow {
	sort.Float64s(xs)
	q := func(p float64) float64 { return xs[int(p*float64(len(xs)-1))] }
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return distRow{series, len(xs), xs[0], q(0.25), q(0.5), q(0.75), xs[len(xs)-1], sum / float64(len(xs))}
}

// randomExplanations hands every LDBC query to f with n random explanations
// of it.
func randomExplanations(e *env, n int, f func(nq workload.Named, orig *query.Query, cands []*query.Query)) {
	for _, nq := range e.ldbc.queries {
		orig := nq.Build()
		f(nq, orig, workload.RandomExplanations(orig, e.ldbc.dom, n, 42))
	}
}

// resultDistances is the result distance of each candidate from orig, over
// result samples of 60.
func resultDistances(e *env, orig *query.Query, cands []*query.Query) []float64 {
	origRes := e.ldbc.m.Find(orig, match.Options{Limit: 60})
	var xs []float64
	for _, c := range cands {
		xs = append(xs, metrics.ResultSetDistance(origRes, e.ldbc.m.Find(c, match.Options{Limit: 60})))
	}
	return xs
}

// fig37 — ordered syntactic distances of random explanations (Fig. 3.7).
func fig37(e *env) []distRow {
	var rs []distRow
	randomExplanations(e, 120, func(nq workload.Named, orig *query.Query, cands []*query.Query) {
		var xs []float64
		for _, c := range cands {
			xs = append(xs, metrics.SyntacticDistance(orig, c))
		}
		rs = append(rs, summarize(nq.Name, xs))
	})
	return rs
}

// fig38 — ordered result distances of random explanations (Fig. 3.8). No
// cardinality threshold enters a result distance: one row per query.
func fig38(e *env) []distRow {
	var rs []distRow
	randomExplanations(e, 40, func(nq workload.Named, orig *query.Query, cands []*query.Query) {
		rs = append(rs, summarize(nq.Name, resultDistances(e, orig, cands)))
	})
	return rs
}

// fig39 — ordered cardinality distances of random explanations (Fig. 3.9),
// per cardinality factor.
func fig39(e *env) []distRow {
	var rs []distRow
	randomExplanations(e, 40, func(nq workload.Named, orig *query.Query, cands []*query.Query) {
		for _, f := range workload.CardinalityFactors {
			cthr := workload.Threshold(nq.C1, f)
			var xs []float64
			for _, c := range cands {
				xs = append(xs, float64(metrics.CardinalityDistance(cthr, e.ldbc.m.Count(c, 20000))))
			}
			rs = append(rs, summarize(fmt.Sprintf("%s C=%.1f (thr=%d)", nq.Name, f, cthr), xs))
		}
	})
	return rs
}

type bucketRow struct {
	Bucket string  `col:"syntactic bucket"`
	Avg    float64 `col:"avg resΔ"`
	N      int
}

// fig310 — average result distance per syntactic-distance bucket (§3.2.5).
func fig310(e *env) []bucketRow {
	var sum [11]float64 // a syntactic distance lies in [0, 1]
	var n [11]int
	randomExplanations(e, 40, func(_ workload.Named, orig *query.Query, cands []*query.Query) {
		for i, res := range resultDistances(e, orig, cands) {
			k := int(metrics.SyntacticDistance(orig, cands[i]) * 10)
			sum[k] += res
			n[k]++
		}
	})
	var rs []bucketRow
	for k := range n {
		if n[k] > 0 {
			rs = append(rs, bucketRow{fmt.Sprintf("[%.1f, %.1f)", float64(k)/10, float64(k+1)/10), sum[k] / float64(n[k]), n[k]})
		}
	}
	return rs
}

type mcsRow struct {
	Query, Variant string
	Traversals     int
	Edges          int `col:"MCS edges"`
	Runtime        time.Duration
}

// fig4Discover — DISCOVERMCS optimizations on why-empty variants (§4.5.1).
func fig4Discover(e *env) []mcsRow {
	var rs []mcsRow
	for _, s := range []*source{e.ldbc, e.dbpedia} {
		for i, q := range s.failing {
			for _, v := range []struct {
				label       string
				wcc, single bool
			}{{"naive", false, false}, {"wcc", true, false}, {"single-path", false, true}, {"wcc+single", true, true}} {
				start := time.Now()
				ex := mcs.DiscoverMCS(s.m, s.st, q, mcs.Options{Control: search.Control{Metrics: &e.kMCS}, UseWCC: v.wcc, SinglePath: v.single})
				rs = append(rs, mcsRow{s.queries[i].Name, v.label, ex.Traversals, ex.MCS.NumEdges(), time.Since(start)})
			}
		}
	}
	return rs
}

type sizeRow struct {
	Edges, Naive, WCC int
	Single            int `col:"single-path"`
}

// fig4Size — DISCOVERMCS cost vs query size, on failing chains (§4.5.1).
func fig4Size(e *env) []sizeRow {
	var rs []sizeRow
	for size := 1; size <= 5; size++ {
		q := chainQuery(size)
		traversals := func(opts mcs.Options) int {
			opts.Control = search.Control{Metrics: &e.kMCS}
			return mcs.DiscoverMCS(e.ldbc.m, e.ldbc.st, q, opts).Traversals
		}
		rs = append(rs, sizeRow{size, traversals(mcs.Options{}), traversals(mcs.Options{UseWCC: true}), traversals(mcs.Options{SinglePath: true})})
	}
	return rs
}

// chainQuery builds a person-knows chain of the given length whose last hop
// carries an unsatisfiable constraint.
func chainQuery(edges int) *query.Query {
	q := query.New()
	prev := q.AddVertex(map[string]query.Predicate{"type": query.EqS("person")})
	for i := 0; i < edges; i++ {
		preds := map[string]query.Predicate{"type": query.EqS("person")}
		if i == edges-1 {
			preds["age"] = query.AtLeast(200) // nobody is that old
		}
		next := q.AddVertex(preds)
		q.AddEdge(prev, next, []string{"knows"}, nil)
		prev = next
	}
	return q
}

type boundedRow struct {
	Query                 string
	Factor                factor
	Threshold, Traversals int
	Edges                 int `col:"MCS edges"`
	Satisfied             bool
}

// fig4Bounded — BOUNDEDMCS for the too-many-answers problem (§4.5.2).
func fig4Bounded(e *env) []boundedRow {
	var rs []boundedRow
	for _, nq := range e.ldbc.queries {
		for _, f := range []float64{0.2, 0.5} {
			cthr := workload.Threshold(nq.C1, f)
			ex := mcs.BoundedMCS(e.ldbc.m, e.ldbc.st, nq.Build(), metrics.Interval{Lower: 1, Upper: cthr},
				mcs.Options{Control: search.Control{Metrics: &e.kMCS}, UseWCC: true})
			rs = append(rs, boundedRow{nq.Name, factor(f), cthr, ex.Traversals, ex.MCS.NumEdges(), ex.Satisfied})
		}
	}
	return rs
}

type priorityRow struct {
	Query               string
	Priority            relax.Priority
	Executed, Solutions int
	Runtime             time.Duration
}

// fig5Priority — executed candidates per priority function (§5.5.1).
func fig5Priority(e *env) []priorityRow {
	var rs []priorityRow
	for _, s := range []*source{e.ldbc, e.dbpedia} {
		rw := relax.New(s.m, s.st)
		for i, q := range s.failing {
			for _, p := range []relax.Priority{relax.PriorityRandom, relax.PrioritySyntactic, relax.PriorityEstimatedCardinality, relax.PriorityAvgPath1, relax.PriorityCombined} {
				start := time.Now()
				out := rw.Rewrite(q, relax.Options{Control: search.Control{Metrics: &e.kRelax}, Priority: p, MaxSolutions: 1, Seed: 7})
				rs = append(rs, priorityRow{s.queries[i].Name, p, out.Executed, len(out.Solutions), time.Since(start)})
			}
		}
	}
	return rs
}

// traceRow is the best cardinality found after each execution of one
// rewriting run.
type traceRow struct {
	Priority relax.Priority
	Best     []int `col:"best cardinality after each execution"`
}

// fig5Convergence — best-so-far cardinality over executed candidates
// (§5.5.2), on LDBC QUERY 2's why-empty variant at budget 40.
func fig5Convergence(e *env) []traceRow {
	q := e.ldbc.failing[1] // LDBC QUERY 2
	rw := relax.New(e.ldbc.m, e.ldbc.st)
	var rs []traceRow
	for _, p := range []relax.Priority{relax.PriorityRandom, relax.PriorityCombined} {
		out := rw.Rewrite(q, relax.Options{Control: search.Control{MaxExecuted: 40, Metrics: &e.kRelax}, Priority: p, MaxSolutions: 3, Seed: 7})
		r := traceRow{Priority: p}
		best := 0
		for _, c := range out.Trace {
			best = max(best, c)
			r.Best = append(r.Best, best)
		}
		rs = append(rs, r)
	}
	return rs
}

type inducedRow struct {
	Query               string
	Priority            relax.Priority
	Executed, Generated int
}

// fig5Induced — combined Path(1)+induced-change priority (§5.5.3).
func fig5Induced(e *env) []inducedRow {
	var rs []inducedRow
	for i, q := range e.ldbc.failing {
		rw := relax.New(e.ldbc.m, e.ldbc.st)
		for _, p := range []relax.Priority{relax.PriorityAvgPath1, relax.PriorityCombined} {
			out := rw.Rewrite(q, relax.Options{Control: search.Control{Metrics: &e.kRelax}, Priority: p, MaxSolutions: 1})
			rs = append(rs, inducedRow{e.ldbc.queries[i].Name, p, out.Executed, out.Generated})
		}
	}
	return rs
}

// userRow counts the proposals until the simulated user accepts one; -1 if
// none is accepted.
type userRow struct {
	Query     string
	NoModel   int `col:"no model"`
	WithModel int `col:"with model"`
}

// fig5User — non-intrusive user integration (§5.5.4 + App. B.1): a simulated
// user protects one query element; count proposals until acceptance.
func fig5User(e *env) []userRow {
	var rs []userRow
	for i, q := range e.ldbc.failing {
		r := userRow{e.ldbc.queries[i].Name, -1, -1}
		protected := protectedTargets[r.Query]
		rw := relax.New(e.ldbc.m, e.ldbc.st)
		accepts := func(sol relax.Candidate) bool {
			return !slices.ContainsFunc(sol.Ops, func(op query.Op) bool { return op.Target() == protected })
		}
		ctl := search.Control{Metrics: &e.kRelax}
		// Without the model: walk the ranked solution list.
		out := rw.Rewrite(q, relax.Options{Control: ctl, MaxSolutions: 10, AllowTopology: true})
		if i := slices.IndexFunc(out.Solutions, accepts); i >= 0 {
			r.NoModel = i + 1
		}
		// With the model: rate each rejected proposal, re-run.
		pm := relax.NewPreferenceModel(1)
		for round := 1; round <= 10; round++ {
			out := rw.Rewrite(q, relax.Options{Control: ctl, MaxSolutions: 1, AllowTopology: true, Prefs: pm})
			if len(out.Solutions) == 0 {
				break
			}
			if accepts(out.Solutions[0]) {
				r.WithModel = round
				break
			}
			pm.Rate(out.Solutions[0], 0)
		}
		rs = append(rs, r)
	}
	return rs
}

// protectedTargets is the element the simulated user protects in each
// query.
var protectedTargets = map[string]query.Target{
	"LDBC QUERY 1": {Kind: query.TargetVertex, ID: 2, Attr: "population"},
	"LDBC QUERY 2": {Kind: query.TargetVertex, ID: 3, Attr: "name"},
	"LDBC QUERY 3": {Kind: query.TargetEdge, ID: 0, Attr: "since"},
	"LDBC QUERY 4": {Kind: query.TargetVertex, ID: 1, Attr: "age"},
}

// resourceRow is one rewriting run's counters. The stat columns are what the
// run itself did to the matcher's executed-count cache, which holds the
// Path(n) statistics.
type resourceRow struct {
	Query                          string
	Executed, Generated, CacheHits int
	StatHits                       int `col:"stat hits"`
	StatEntries                    int `col:"stat entries"`
}

// fig5Resources — cache effectiveness (App. B.2), under the combined
// priority whydbd's explain uses: it is the priority that reads the Path(n)
// statistics the stat columns count.
func fig5Resources(e *env) []resourceRow {
	var rs []resourceRow
	for i, q := range e.ldbc.failing {
		rw := relax.New(e.ldbc.m, e.ldbc.st)
		hits0, _, entries0 := e.ldbc.m.CountCacheStats()
		out := rw.Rewrite(q, relax.Options{Control: search.Control{Metrics: &e.kRelax}, Priority: relax.PriorityCombined, MaxSolutions: 5, MaxDepth: 3, AllowTopology: true})
		hits, _, entries := e.ldbc.m.CountCacheStats()
		rs = append(rs, resourceRow{e.ldbc.queries[i].Name, out.Executed, out.Generated, out.CacheHits, hits - hits0, entries - entries0})
	}
	return rs
}

type baselineRow struct {
	Query     string
	Factor    factor
	Method    string
	Executed  int
	BestCard  int `col:"bestCard"`
	CardDelta int `col:"cardΔ"`
	Runtime   time.Duration
}

// fig6Baseline — TRAVERSESEARCHTREE vs baselines (§6.4.2), at budget 150.
func fig6Baseline(e *env) []baselineRow {
	var rs []baselineRow
	for _, nq := range e.ldbc.queries {
		for _, f := range workload.CardinalityFactors {
			cthr := workload.Threshold(nq.C1, f)
			goal := metrics.Interval{Lower: cthr} // too few answers: at least cthr
			if f < 1 {
				goal = metrics.Interval{Lower: 1, Upper: cthr} // too many: at most cthr
			}
			s := modtree.New(e.ldbc.m, e.ldbc.st)
			opts := modtree.Options{Control: search.Control{MaxExecuted: 150, Metrics: &e.kModtree}, Goal: goal, Domain: e.ldbc.dom}
			for _, m := range []struct {
				label string
				run   func(*query.Query, modtree.Options) modtree.Result
			}{{"TST", s.TraverseSearchTree}, {"exhaustive", s.Exhaustive}, {"random", func(q *query.Query, o modtree.Options) modtree.Result { return s.RandomWalk(q, o, 7) }}} {
				start := time.Now()
				r := m.run(nq.Build(), opts)
				rs = append(rs, baselineRow{nq.Name, factor(f), m.label, r.Executed, r.Best.Cardinality, r.Best.Distance, time.Since(start)})
			}
		}
	}
	return rs
}

type topologyRow struct {
	Query     string
	Topology  bool
	Executed  int
	BestCard  int `col:"bestCard"`
	Satisfied bool
}

// fig6Topology — topology consideration (§6.4.3), at budget 150.
func fig6Topology(e *env) []topologyRow {
	var rs []topologyRow
	for i, q := range e.ldbc.failing {
		s := modtree.New(e.ldbc.m, e.ldbc.st)
		for _, topo := range []bool{false, true} {
			r := s.TraverseSearchTree(q, modtree.Options{Control: search.Control{MaxExecuted: 150, Metrics: &e.kModtree},
				Goal: metrics.AtLeastOne, Domain: e.ldbc.dom, AllowTopology: topo})
			rs = append(rs, topologyRow{e.ldbc.queries[i].Name, topo, r.Executed, r.Best.Cardinality, r.Satisfied})
		}
	}
	return rs
}
