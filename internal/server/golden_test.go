package server

// TestGoldenAnswers pins every answer the daemon serves for a fixed table of
// requests, byte for byte, in testdata/answers.golden. The thesis compares
// explanations on three levels (syntactic, cardinality and result distance),
// so a moved byte in a served report is a moved answer: a change that moves
// one either names the body and why in its change log, or is wrong.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// goldenDatasets are the daemon's default datasets, in table order, with
// the built-ins and failing variants whydbd registers for each.
var goldenDatasets = []struct {
	name     string
	builtins []workload.Named
	failing  func(string) (*query.Query, error)
}{
	{"ldbc", workload.LDBCQueries(), workload.FailingVariant},
	{"dbpedia", workload.DBpediaQueries(), workload.DBpediaFailingVariant},
}

// goldenSpec is one request of the table. Its name is also its request id,
// after the phase it is sent in, so a body's envelope names it too.
type goldenSpec struct {
	name string
	path string
	req  any
}

// goldenBody is one served body under the name of the request that got it.
type goldenBody struct {
	name string
	body []byte
}

// goldenVariants are the five explain specs of one built-in whose original
// counts c1 at boot: why-empty, why-so-many and why-so-few; each rewriting
// engine where it is the default (coarse relaxation on why-empty, the
// modification tree otherwise) and once forced onto the other kind of
// problem; topology-changing rewritings on three of them.
func goldenVariants(ds, builtin string, c1 int) []goldenSpec {
	no, yes := false, true
	spec := func(name string, r wire.ExplainRequest) goldenSpec {
		r.Dataset, r.Builtin = ds, builtin
		return goldenSpec{name, "/v1/explain", r}
	}
	return []goldenSpec{
		spec("why-empty", wire.ExplainRequest{Failing: true, Lower: 1}),
		spec("why-so-many", wire.ExplainRequest{Lower: 1, Upper: workload.Threshold(c1, 0.5)}),
		spec("why-so-few.coarse.topology", wire.ExplainRequest{Lower: workload.Threshold(c1, 2), FineGrained: &no, AllowTopology: true}),
		spec("why-empty.fine.topology", wire.ExplainRequest{Failing: true, Lower: 1, FineGrained: &yes, AllowTopology: true}),
		spec("why-so-many.topology", wire.ExplainRequest{Lower: 1, Upper: 3, AllowTopology: true}),
	}
}

// goldenTable is the request table over the boot engines: for each built-in
// of each dataset its five explain variants, then a count and a find of
// the built-in.
func goldenTable(engs []*core.Engine) (explains, matches []goldenSpec) {
	for i, d := range goldenDatasets {
		for n, nq := range d.builtins {
			prefix := fmt.Sprintf("%s.q%d.", d.name, n+1)
			for _, v := range goldenVariants(d.name, nq.Name, engs[i].Matcher().Count(nq.Build(), 0)) {
				v.name = prefix + v.name
				explains = append(explains, v)
			}
			matches = append(matches,
				goldenSpec{prefix + "count", "/v1/match", wire.MatchRequest{Dataset: d.name, Builtin: nq.Name}},
				goldenSpec{prefix + "find", "/v1/match", wire.MatchRequest{Dataset: d.name, Builtin: nq.Name, Mode: "find", Limit: 20}})
		}
	}
	return explains, matches
}

// post sends one request under a fixed request id.
func post(t testing.TB, h http.Handler, path, id string, req any) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", path, bytes.NewReader(blob))
	r.Header.Set("X-Request-Id", id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", path, id, rec.Code, rec.Body)
	}
	return rec
}

// goldenRun is one daemon over one pair of engines, and every body it
// served, in order.
type goldenRun struct {
	t      *testing.T
	s      *Server
	bodies []goldenBody
}

func newGoldenRun(t *testing.T, engs []*core.Engine) *goldenRun {
	s := New(Config{})
	for i, d := range goldenDatasets {
		s.AddDataset(d.name, engs[i], d.builtins, d.failing)
	}
	return &goldenRun{t: t, s: s}
}

// send posts every spec of the table, named after the phase.
func (r *goldenRun) send(phase string, table []goldenSpec) {
	h := r.s.Handler()
	for _, spec := range table {
		id := phase + "." + spec.name
		r.bodies = append(r.bodies, goldenBody{id, post(r.t, h, spec.path, id, spec.req).Body.Bytes()})
	}
}

// refreezeMs is the one timing a served body carries.
var refreezeMs = regexp.MustCompile(`,"refreezeMs":[-+.eE0-9]+`)

// mutate applies the scripted write batches to each dataset. The first
// removes three edges that built-in results run through and adds a vertex
// of a new kind with an edge of a new type; the second removes that vertex
// again, with its edge, and one more result edge. Each batch must move the
// domain catalog the modification tree draws values from. The second is
// there because a dataset's first successor scans its domain afresh: only a
// later batch runs Derive's incremental path. onEpoch, if set, sees every
// published engine.
func (r *goldenRun) mutate(onEpoch func(*core.Engine)) {
	h := r.s.Handler()
	removed := map[string][][]int{ // per batch, edges built-in results run through
		"ldbc":    {{37, 3810, 9617}, {304}},
		"dbpedia": {{8503, 2290, 392}, {1814}},
	}
	golden := map[string]wire.Value{"type": {Kind: "string", Str: "golden"}}
	for _, d := range goldenDatasets {
		ds, _ := r.s.lookup(d.name)
		batches := []wire.MutateRequest{
			{AddVertices: []wire.MutVertex{{Attrs: golden}}, AddEdges: []wire.MutEdge{{From: -1, To: 0, Type: "golden"}}, RemoveEdges: removed[d.name][0]},
			{RemoveEdges: removed[d.name][1]},
		}
		for i, batch := range batches {
			batch.Dataset = d.name
			if i == 1 { // the vertex the first batch added: ids are never reused
				batch.RemoveVertices = []int{ds.engine().Graph().NumVertices() - 1}
			}
			before := ds.engine()
			id := fmt.Sprintf("mutate.%s.%d", d.name, i+1)
			body := post(r.t, h, "/v1/graph/mutate", id, batch).Body.Bytes()
			r.bodies = append(r.bodies, goldenBody{id, refreezeMs.ReplaceAll(body, nil)})
			if sameCatalogs(before.Domain(), ds.engine().Domain()) {
				r.t.Fatalf("%s: the batch left the domain catalog as it was: a stale catalog could not show", id)
			}
			if onEpoch != nil {
				onEpoch(ds.engine())
			}
		}
	}
}

// sequence sends the table, applies the writes and sends the table again.
func (r *goldenRun) sequence(table []goldenSpec, onEpoch func(*core.Engine)) {
	r.send("before", table)
	r.mutate(onEpoch)
	r.send("after", table)
}

// sameCatalogs compares the catalogs of two domains.
func sameCatalogs(a, b *stats.Domain) bool {
	return reflect.DeepEqual(a.VertexValues, b.VertexValues) && reflect.DeepEqual(a.VertexValuesByType, b.VertexValuesByType) &&
		reflect.DeepEqual(a.EdgeValues, b.EdgeValues) && reflect.DeepEqual(a.EdgeTypes, b.EdgeTypes)
}

// transports sends every explain spec once more through the batch and the
// stream transport: each batch item's data and each stream's done event
// must be the data of the blocking body served for the same spec in phase,
// the last phase sent.
func (r *goldenRun) transports(phase string, explains []goldenSpec) {
	t := r.t
	h := r.s.Handler()
	blocking := make(map[string][]byte)
	for _, b := range r.bodies {
		var env wire.Envelope
		mustUnmarshal(t, b.body, &env)
		blocking[b.name] = env.Data
	}
	// One batch per dataset, of its 20 explain specs.
	for lo := 0; lo < len(explains); lo += 20 {
		specs := explains[lo : lo+20]
		var batch wire.BatchExplainRequest
		for _, spec := range specs {
			batch.Items = append(batch.Items, spec.req.(wire.ExplainRequest))
		}
		rec := post(t, h, "/v1/explain/batch", fmt.Sprintf("batch.%d", lo/20+1), batch)
		var resp wire.BatchExplainResponse
		mustUnmarshal(t, envelope(t, rec).Data, &resp)
		for i, item := range resp.Items {
			want := blocking[phase+"."+specs[i].name]
			if !bytes.Equal(item.Data, want) {
				t.Errorf("batch item %s differs from its blocking body: %s", specs[i].name, shortDiff(item.Data, want))
			}
		}
	}
	for _, spec := range explains {
		events := parseSSE(t, post(t, h, "/v1/explain/stream", "stream."+spec.name, spec.req).Body.Bytes())
		done := events[len(events)-1]
		if want := blocking[phase+"."+spec.name]; done.name != "done" || !bytes.Equal(done.data, want) {
			t.Errorf("stream %s: last event %q differs from the blocking body: %s", spec.name, done.name, shortDiff(done.data, want))
		}
	}
}

// shortDiff shows where two bodies first differ, with a little context.
func shortDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("first difference at byte %d of %d (want %d):\n  got  …%s\n  want …%s", i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// sameBodies holds a run to the bodies of the reference run.
func sameBodies(t *testing.T, what string, got, want []goldenBody) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bodies, the reference run served %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].name != want[i].name || !bytes.Equal(got[i].body, want[i].body) {
			t.Errorf("%s: %s differs from the reference run's %s: %s", what, got[i].name, want[i].name, shortDiff(got[i].body, want[i].body))
		}
	}
}

// whydbReports are the reports `whydb -json` prints for every built-in,
// encoded as it encodes them: encoding/json over wire.FromQuery and
// wire.FromReport, indented.
func whydbReports(t *testing.T, engs []*core.Engine) []goldenBody {
	var out []goldenBody
	for i, d := range goldenDatasets {
		for n, nq := range d.builtins {
			failing, err := d.failing(nq.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, flags := range []struct {
				name     string
				q        *query.Query
				expected metrics.Interval
			}{
				{"fail.lower1", failing, metrics.Interval{Lower: 1}},
				{"lower1.upper3", nq.Build(), metrics.Interval{Lower: 1, Upper: 3}},
			} {
				for _, topology := range []bool{false, true} {
					rep, err := engs[i].Explain(flags.q, core.Options{Expected: flags.expected, AllowTopology: topology})
					if err != nil {
						t.Fatal(err)
					}
					var b bytes.Buffer
					enc := json.NewEncoder(&b)
					enc.SetIndent("", "  ")
					if err := enc.Encode(struct {
						Query  wire.Query  `json:"query"`
						Report wire.Report `json:"report"`
					}{wire.FromQuery(flags.q), wire.FromReport(rep)}); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("whydb.%s.q%d.%s", d.name, n+1, flags.name)
					if topology {
						name += ".topology"
					}
					out = append(out, goldenBody{name, b.Bytes()})
				}
			}
		}
	}
	return out
}

// goldenGraphs generates the daemon's default datasets (-scale 1).
func goldenGraphs(t *testing.T) []*graph.Graph {
	var gs []*graph.Graph
	for _, d := range goldenDatasets {
		g, err := datagen.Generate(d.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

func newEngines(gs []*graph.Graph) []*core.Engine {
	var engs []*core.Engine
	for _, g := range gs {
		engs = append(engs, core.NewEngine(g))
	}
	return engs
}

// goldenFile renders the bodies as the golden file: one line per body, its
// SHA-256, its length and its name.
func goldenFile(bodies []goldenBody) string {
	var b strings.Builder
	b.WriteString("# TestGoldenAnswers: the SHA-256, length and name of every body it pins.\n")
	for _, body := range bodies {
		fmt.Fprintf(&b, "%x %6d %s\n", sha256.Sum256(body.body), len(body.body), body.name)
	}
	return b.String()
}

// TestGoldenAnswers boots the daemon in-process over its default datasets
// and sends the fixed table: five explain specs and a count and a find for
// each of the eight built-ins, then two scripted write batches per dataset,
// then the table again. With the reports `whydb -json` prints for the eight
// built-ins, every body is held to testdata/answers.golden. The same
// sequence then runs on engines that must serve the same bytes: with the
// count cache off, booted from a packed snapshot (read and zero-copy), and,
// after the writes, built from scratch over the written graphs. Every
// explain spec also goes through the batch and the stream transport once.
//
// A move the change intends is named, body by body, in its change log, and
// the golden file is replaced with the one the failure prints.
func TestGoldenAnswers(t *testing.T) {
	gs := goldenGraphs(t)
	ref := newEngines(gs)
	explains, matches := goldenTable(ref)
	table := append(explains, matches...)

	bodies := whydbReports(t, newEngines(gs))
	run := newGoldenRun(t, ref)
	run.sequence(table, nil)
	run.transports("after", explains)
	bodies = append(bodies, run.bodies...)
	for i, d := range goldenDatasets {
		if hits, _, _ := ref[i].Matcher().CountCacheStats(); hits == 0 {
			t.Fatalf("%s: the reference run never hit the count cache: the cache-off run proves nothing", d.name)
		}
	}

	got := goldenFile(bodies)
	want, err := os.ReadFile("testdata/answers.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		served := make(map[string][]byte, len(bodies))
		for _, b := range bodies {
			served[b.name] = b.body
		}
		name := func(line string) string { return line[strings.LastIndexByte(line, ' ')+1:] }
		golden := make(map[string]string)
		for _, line := range strings.Split(string(want), "\n") {
			golden[name(line)] = line
		}
		moved := 0
		for _, line := range strings.Split(got, "\n") {
			if golden[name(line)] == line {
				continue
			}
			if moved++; moved <= 3 {
				t.Errorf("moved:\n  golden %s\n  now    %s\nwhich serves:\n%s", golden[name(line)], line, served[name(line)])
			} else {
				t.Errorf("moved:\n  golden %s\n  now    %s", golden[name(line)], line)
			}
		}
		t.Errorf("the served bodies differ from testdata/answers.golden. If every move is intended and named in the change log, this is the new file:\n%s", got)
	}

	t.Run("count-cache-off", func(t *testing.T) {
		engs := newEngines(gs)
		off := func(e *core.Engine) { e.Matcher().SetCountCache(false) }
		for _, e := range engs {
			off(e)
		}
		r := newGoldenRun(t, engs)
		r.sequence(table, off)
		sameBodies(t, "count cache off", r.bodies, run.bodies)
		for i, d := range goldenDatasets {
			if hits, _, _ := engs[i].Matcher().CountCacheStats(); hits != 0 {
				t.Fatalf("%s: %d count-cache hits with the cache off", d.name, hits)
			}
		}
	})
	for _, zeroCopy := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot-zerocopy-%v", zeroCopy), func(t *testing.T) {
			var engs []*core.Engine
			for _, g := range gs {
				image, err := snapshot.Pack(g)
				if err != nil {
					t.Fatal(err)
				}
				lg, _, err := snapshot.Load(image, zeroCopy)
				if err != nil {
					t.Fatal(err)
				}
				engs = append(engs, core.NewEngine(lg))
			}
			r := newGoldenRun(t, engs)
			r.sequence(table, nil)
			sameBodies(t, "snapshot", r.bodies, run.bodies)
		})
	}
	t.Run("fresh-after-writes", func(t *testing.T) {
		var engs []*core.Engine
		for _, d := range goldenDatasets {
			ds, _ := run.s.lookup(d.name)
			succ := ds.engine()
			clone := succ.Graph().Clone()
			clone.BuildVertexIndex(succ.Graph().IndexedKeys()...)
			fresh := core.NewEngine(clone)
			if !sameCatalogs(fresh.Domain(), succ.Domain()) {
				t.Errorf("%s: the published domain catalog differs from a fresh engine's:\n%+v\nfresh\n%+v", d.name, succ.Domain(), fresh.Domain())
			}
			engs = append(engs, fresh)
		}
		r := newGoldenRun(t, engs)
		r.send("after", table)
		sameBodies(t, "fresh engine", r.bodies, run.bodies[len(run.bodies)-len(table):])
	})
}
