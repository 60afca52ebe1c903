package metrics

import (
	"slices"

	"repro/internal/query"
)

// SyntacticDistance computes the fine-grained syntactic distance between an
// original query q1 and an explanation q2 following Algorithm 1: modified
// Hausdorff distances over every subset of the set-based query model
// (predicate intervals, IN/OUT edge-id sets, type disjunctions, direction
// sets, endpoint identifiers), aggregated per vertex (Eq. 3.11), per edge
// (Eq. 3.12), and over the whole query (Eq. 3.13). The result lies in [0,1]:
// 0 for identical queries, 1 when nothing is shared.
func SyntacticDistance(q1, q2 *query.Query) float64 {
	vUnion := unionInts(q1.VertexIDs(), q2.VertexIDs())
	eUnion := unionInts(q1.EdgeIDs(), q2.EdgeIDs())
	if len(vUnion)+len(eUnion) == 0 {
		return 0
	}
	var total float64
	for _, vid := range vUnion {
		total += vertexDistance(q1, q2, vid)
	}
	for _, eid := range eUnion {
		total += edgeDistance(q1, q2, eid)
	}
	return total / float64(len(vUnion)+len(eUnion))
}

// vertexDistance implements Eq. 3.11 for the vertex with identifier vid.
// A vertex present in only one query contributes the maximal distance 1
// (Algorithm 1, lines 5–8).
func vertexDistance(q1, q2 *query.Query, vid int) float64 {
	v1, v2 := q1.Vertex(vid), q2.Vertex(vid)
	if v1 == nil || v2 == nil {
		return 1
	}
	keys := unionPredKeys(v1.Preds, v2.Preds)
	var sum float64
	for _, k := range keys {
		sum += predKeyDistance(v1.Preds, v2.Preds, k)
	}
	sum += MHDInts(q1.In(vid), q2.In(vid))
	sum += MHDInts(q1.Out(vid), q2.Out(vid))
	return sum / float64(len(keys)+2)
}

// edgeDistance implements Eq. 3.12 for the edge with identifier eid.
func edgeDistance(q1, q2 *query.Query, eid int) float64 {
	e1, e2 := q1.Edge(eid), q2.Edge(eid)
	if e1 == nil || e2 == nil {
		return 1
	}
	keys := unionPredKeys(e1.Preds, e2.Preds)
	var sum float64
	for _, k := range keys {
		sum += predKeyDistance(e1.Preds, e2.Preds, k)
	}
	sum += MHDStrings(e1.Types, e2.Types)
	sum += dirDistance(e1.Dirs, e2.Dirs)
	if e1.From != e2.From {
		sum++
	}
	if e1.To != e2.To {
		sum++
	}
	return sum / float64(len(keys)+4)
}

// predKeyDistance compares the predicate interval for one attribute key;
// a predicate present on only one side is at distance 1.
func predKeyDistance(p1, p2 map[string]query.Predicate, key string) float64 {
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

// dirDistance is the MHD between two direction sets (at most two members).
func dirDistance(a, b query.Dir) float64 {
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
	return MHDInts(as, bs)
}

// unionInts returns a followed by the members of b that a lacks.
func unionInts(a, b []int) []int {
	out := slices.Clone(a)
	for _, x := range b {
		if !slices.Contains(a, x) {
			out = append(out, x)
		}
	}
	return out
}

// unionPredKeys returns the attribute keys either predicate set constrains.
func unionPredKeys(a, b map[string]query.Predicate) []string {
	out := make([]string, 0, len(a)+len(b))
	for k := range a {
		out = append(out, k)
	}
	for k := range b {
		if _, both := a[k]; !both {
			out = append(out, k)
		}
	}
	return out
}
