package query_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/workload"
)

// fuzzSeeds are the queries a fuzz input starts from: the eight built-ins
// and their failing variants.
func fuzzSeeds(t testing.TB) []*query.Query {
	var qs []*query.Query
	for _, nq := range workload.LDBCQueries() {
		f, err := workload.FailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, nq.Build(), f)
	}
	for _, nq := range workload.DBpediaQueries() {
		f, err := workload.DBpediaFailingVariant(nq.Name)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, nq.Build(), f)
	}
	return qs
}

// opStream draws operations from fuzz bytes; an exhausted stream reads zeros.
type opStream struct{ data []byte }

func (s *opStream) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

var (
	fuzzAttrs  = []string{"type", "name", "age", "gender", "since", "classYear", "population", "theme", "extra"}
	fuzzTypes  = []string{"knows", "studyAt", "workAt", "locatedIn", "likes"}
	fuzzDeltas = []float64{1, 0, 2.5, -1}
	fuzzVals   = []graph.Value{graph.S("person"), graph.S("city"), graph.S("x"), graph.N(7), graph.N(2013), graph.N(30), graph.B(true)}
	fuzzDirs   = []query.Dir{query.Forward, query.Backward, query.Both, 0}
)

// op draws one of the 14 operation types with its target and values from the
// stream: ids range a little past what q holds and attributes and values
// over more than any element carries, so inapplicable operations occur.
func (s *opStream) op(q *query.Query) query.Op {
	kind := s.next() % 14
	vid, eid := s.next()%(q.NumVertices()+3), s.next()%(q.NumEdges()+3)
	if vs := q.Vertices(); vid < len(vs) {
		vid = vs[vid].ID
	}
	if es := q.Edges(); eid < len(es) {
		eid = es[eid].ID
	}
	on := query.Target{Kind: query.TargetVertex, ID: vid, Attr: fuzzAttrs[s.next()%len(fuzzAttrs)]}
	if kind >= 8 && s.next()%2 == 1 {
		on.Kind, on.ID = query.TargetEdge, eid
	}
	val := fuzzVals[s.next()%len(fuzzVals)]
	switch kind {
	case 0:
		return query.DeleteEdge{Edge: eid}
	case 1:
		return query.DeleteVertex{Vertex: vid}
	case 2:
		return query.DeleteDirection{Edge: eid}
	case 3:
		return query.SetDirection{Edge: eid, Dirs: fuzzDirs[s.next()%len(fuzzDirs)]}
	case 4:
		to := s.next() % (q.NumVertices() + 1)
		if vs := q.Vertices(); to < len(vs) {
			to = vs[to].ID
		}
		return query.InsertEdge{From: vid, To: to, Types: fuzzTypes[:s.next()%3], Dirs: fuzzDirs[s.next()%len(fuzzDirs)]}
	case 5:
		return query.DeleteType{Edge: eid}
	case 6:
		return query.AddType{Edge: eid, Type: fuzzTypes[s.next()%len(fuzzTypes)]}
	case 7:
		return query.RemoveType{Edge: eid, Type: fuzzTypes[s.next()%len(fuzzTypes)]}
	case 8:
		return query.DeletePredicate{On: on}
	case 9:
		return query.InsertPredicate{On: on, Pred: query.Eq(val)}
	case 10:
		return query.ExtendPredicate{On: on, Value: val}
	case 11:
		return query.ShrinkPredicate{On: on, Value: val}
	case 12:
		return query.WidenRange{On: on, Delta: fuzzDeltas[s.next()%len(fuzzDeltas)]}
	default:
		return query.NarrowRange{On: on, Delta: fuzzDeltas[s.next()%len(fuzzDeltas)]}
	}
}

// FuzzApplyKeyed drives chains of up to eight operations through ApplyKeyed,
// each applied to the latest query or, now and then, to an earlier one (so
// siblings occur). After every step: the returned key is the child's key,
// freshly encoded and encoded from a deep copy; keys agree exactly when
// canonical texts do, against every earlier query of the chain; the child is
// valid with ascending ids; ApplyKeyed agrees with Apply + Key, on failure
// too; and no query the chain has produced — the parent first of all — reads
// differently than when it was made: the copy-on-write safety the shared
// element pointers and predicate values rest on.
func FuzzApplyKeyed(f *testing.F) {
	seeds := fuzzSeeds(f) // testdata/fuzz/FuzzApplyKeyed holds one chain per seed
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &opStream{data}
		type made struct {
			q, plain   *query.Query // plain: the same chain by Apply, for ApplyKeyed ≡ Apply + Key
			key, canon string
		}
		q := seeds[s.next()%len(seeds)].Clone()
		chain := []made{{q, q.Clone(), q.Key(), q.Canonical()}}
		for step := 0; step < 8 && len(s.data) > 0; step++ {
			parent := chain[len(chain)-1]
			if b := s.next(); b%4 == 0 {
				parent = chain[b/4%len(chain)]
			}
			op := s.op(parent.q)
			child, key, err := query.ApplyKeyed(parent.q, parent.key, op)
			for _, m := range chain {
				if m.q.Key() != m.key || m.q.Canonical() != m.canon {
					t.Fatalf("%s on\n%s\nchanged an earlier query of the chain: it was\n%s\nand now reads\n%s", op, parent.canon, m.canon, m.q.Canonical())
				}
			}
			plain, perr := query.Apply(parent.plain, op)
			if (err == nil) != (perr == nil) {
				t.Fatalf("%s: ApplyKeyed says %v, Apply says %v", op, err, perr)
			}
			if err != nil {
				continue
			}
			canon := child.Canonical()
			if key != child.Key() || key != string(child.Clone().AppendKey(nil)) || key != plain.Key() || canon != plain.Canonical() {
				t.Fatalf("%s on\n%s\nkey %q\nchild key %q\nApply's key %q\nchild\n%s\nApply's\n%s", op, parent.canon, key, child.Key(), plain.Key(), canon, plain.Canonical())
			}
			if err := child.Validate(); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			for i, v := range child.Vertices() {
				if i > 0 && v.ID <= child.Vertices()[i-1].ID {
					t.Fatalf("%s: vertex ids not ascending:\n%s", op, canon)
				}
			}
			for i, e := range child.Edges() {
				if i > 0 && e.ID <= child.Edges()[i-1].ID {
					t.Fatalf("%s: edge ids not ascending:\n%s", op, canon)
				}
			}
			for _, m := range chain {
				if (m.key == key) != (m.canon == canon) {
					t.Fatalf("key equality and canonical equality disagree:\n%q\n%s\n%q\n%s", m.key, m.canon, key, canon)
				}
			}
			chain = append(chain, made{child, plain, key, canon})
		}
	})
}
