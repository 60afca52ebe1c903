package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Binary canonical keys.
//
// Key/AppendKey encode a query into an unambiguous binary form that is equal
// for two queries exactly when their Canonical() texts are equal. The keys
// replace Canonical() on every hot path that needs query identity — the
// executed-query caches of the rewriting searches (App. B.2), the statistics
// caches of §5.2, and the matcher's compiled-plan cache — because they are
// built without fmt, strconv, or strings.Builder and because a child
// candidate's key can be derived from its parent's key by splicing only the
// modified element record (ApplyKeyed), instead of re-canonicalizing the
// whole query for every generated candidate.
//
// Format: a concatenation of element records, vertices first, ids ascending
// within each kind (the same order Canonical uses):
//
//	vertex record: 'v' uvarint(id) uvarint(len(payload)) payload
//	edge record:   'e' uvarint(id) uvarint(len(payload)) payload
//
// A vertex payload is its predicate-set encoding. An edge payload is
// uvarint(from) uvarint(to) byte(dirs) uvarint(#types) the sorted types
// (each length-prefixed) and the predicate-set encoding. Every string is
// length-prefixed and every float is its raw IEEE bits, so distinct
// structures never collide. The uniform record framing (tag, id, payload
// length) makes records skippable without decoding, which is what lets
// ApplyKeyed edit a key in place.

// keyScratch is the stack capacity for per-call id/attr collections; queries
// beyond it spill to the heap but stay correct.
const keyScratch = 16

// AppendKey appends the query's binary canonical key to dst and returns the
// extended slice. For queries of up to keyScratch vertices, edges, and
// predicates per element it performs no allocations beyond growing dst.
func (q *Query) AppendKey(dst []byte) []byte {
	var stack [keyScratch]int
	ids := stack[:0]
	for id := range q.vertices {
		ids = insertSortedInt(ids, id)
	}
	for _, id := range ids {
		dst = appendVertexRecord(dst, q.vertices[id])
	}
	ids = ids[:0]
	for id := range q.edges {
		ids = insertSortedInt(ids, id)
	}
	for _, id := range ids {
		dst = appendEdgeRecord(dst, q.edges[id])
	}
	return dst
}

// AppendKeyByEdges appends the key of the subquery the given edges induce —
// byte for byte q.SubqueryByEdges(edgeIDs).AppendKey(dst) — without building
// that subquery: the records of the edges' endpoints, then of the edges, ids
// ascending. Unknown and repeated edge ids are ignored, as SubqueryByEdges
// ignores them.
func (q *Query) AppendKeyByEdges(dst []byte, edgeIDs []int) []byte {
	var vstack, estack [keyScratch]int
	vids, eids := vstack[:0], estack[:0]
	for _, eid := range edgeIDs {
		e, ok := q.edges[eid]
		if !ok {
			continue
		}
		eids = insertSortedUnique(eids, eid)
		vids = insertSortedUnique(vids, e.From)
		vids = insertSortedUnique(vids, e.To)
	}
	for _, id := range vids {
		dst = appendVertexRecord(dst, q.vertices[id])
	}
	for _, id := range eids {
		dst = appendEdgeRecord(dst, q.edges[id])
	}
	return dst
}

// Key returns the binary canonical key as a string (usable as a map key).
// Key equality is exactly Canonical() equality.
func (q *Query) Key() string { return string(q.AppendKey(nil)) }

// insertSortedInt inserts x into the ascending slice ids (insertion sort;
// element counts are tiny and the backing array usually lives on the stack).
func insertSortedInt(ids []int, x int) []int {
	ids = append(ids, x)
	for i := len(ids) - 1; i > 0 && ids[i-1] > x; i-- {
		ids[i] = ids[i-1]
		ids[i-1] = x
	}
	return ids
}

// insertSortedUnique is insertSortedInt that leaves ids alone when it holds x.
func insertSortedUnique(ids []int, x int) []int {
	if slices.Contains(ids, x) {
		return ids
	}
	return insertSortedInt(ids, x)
}

func appendVertexRecord(dst []byte, v *Vertex) []byte {
	dst = append(dst, 'v')
	dst = binary.AppendUvarint(dst, uint64(v.ID))
	return appendSized(dst, func(b []byte) []byte {
		return appendPredsKey(b, v.Preds)
	})
}

func appendEdgeRecord(dst []byte, e *Edge) []byte {
	dst = append(dst, 'e')
	dst = binary.AppendUvarint(dst, uint64(e.ID))
	return appendSized(dst, func(b []byte) []byte {
		b = binary.AppendUvarint(b, uint64(e.From))
		b = binary.AppendUvarint(b, uint64(e.To))
		b = append(b, byte(e.Dirs))
		return e.AppendConstraintKey(b)
	})
}

// appendSized appends uvarint(len(payload)) followed by the payload produced
// by fill. The payload is built directly into dst's tail and the length
// prefix patched in afterwards, shifting only when the varint needs more than
// one byte (payloads under 128 bytes — almost all — shift nothing).
func appendSized(dst []byte, fill func([]byte) []byte) []byte {
	// Reserve one byte for the common single-byte varint length.
	dst = append(dst, 0)
	start := len(dst)
	dst = fill(dst)
	size := len(dst) - start
	if size < 0x80 {
		dst[start-1] = byte(size)
		return dst
	}
	var lenbuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenbuf[:], uint64(size))
	dst = append(dst, lenbuf[1:n]...) // grow by the extra varint bytes
	copy(dst[start-1+n:], dst[start:start+size])
	copy(dst[start-1:], lenbuf[:n])
	return dst
}

// AppendPredKey appends the canonical binary encoding of the vertex's
// predicate set — the id-free form the statistics caches of §5.2.2 key
// vertex cardinalities by (two vertices with equal predicate sets share one
// statistics entry regardless of their ids).
func (v *Vertex) AppendPredKey(dst []byte) []byte {
	return appendPredsKey(dst, v.Preds)
}

// AppendConstraintKey appends the canonical binary encoding of the edge's
// type disjunction, direction set, and predicate set — the id- and
// endpoint-free form the statistics caches key edge cardinalities by.
func (e *Edge) AppendConstraintKey(dst []byte) []byte {
	dst = append(dst, byte(e.Dirs))
	types := e.typesSorted()
	dst = binary.AppendUvarint(dst, uint64(len(types)))
	for _, t := range types {
		dst = appendKeyString(dst, t)
	}
	return appendPredsKey(dst, e.Preds)
}

// appendPredsKey appends a predicate map as uvarint(count) followed by the
// (attribute, predicate) pairs in ascending attribute order.
func appendPredsKey(dst []byte, preds map[string]Predicate) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(preds)))
	if len(preds) == 0 {
		return dst
	}
	var stack [keyScratch]string
	attrs := stack[:0]
	for a := range preds {
		attrs = append(attrs, a)
		for i := len(attrs) - 1; i > 0 && attrs[i-1] > a; i-- {
			attrs[i] = attrs[i-1]
			attrs[i-1] = a
		}
	}
	for _, a := range attrs {
		dst = appendKeyString(dst, a)
		p := preds[a]
		dst = p.appendKey(dst)
	}
	return dst
}

// appendKey appends the predicate's unambiguous binary encoding.
func (p Predicate) appendKey(dst []byte) []byte {
	if p.Kind == Range {
		dst = append(dst, 'R')
		dst = appendKeyU64(dst, math.Float64bits(p.Lo))
		dst = appendKeyU64(dst, math.Float64bits(p.Hi))
		var f byte
		if p.IncLo {
			f |= 1
		}
		if p.IncHi {
			f |= 2
		}
		return append(dst, f)
	}
	dst = append(dst, 'V')
	dst = binary.AppendUvarint(dst, uint64(len(p.Vals)))
	for _, v := range p.Vals {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case graph.KindNumber:
			dst = appendKeyU64(dst, math.Float64bits(v.Num))
		case graph.KindBool:
			if v.Bool {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		default:
			dst = appendKeyString(dst, v.Str)
		}
	}
	return dst
}

func appendKeyString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendKeyU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// ---------------------------------------------------------------------------
// What a keyed count reads

// CountMayChange decides, from a query's key alone, whether a batch of graph
// writes can have changed the query's result count. key is an AppendKey
// encoding, optionally followed by one uvarint (the count cap the matcher
// appends); edgeTypes holds the type of every data edge the batch added or
// removed (cascades of vertex removals included) and vertices says whether it
// added or removed any vertex. Existing vertices never change attributes, so
// an embedding can only appear or vanish with an element the batch touched:
//
//   - a touched edge can only be bound by a query edge that admits its type —
//     one that lists the type, or has no type constraint at all;
//   - a touched vertex is bound either together with one of its incident data
//     edges, all of which the batch touched too (they are new, or cascaded),
//     or by a query vertex without any incident query edge.
//
// So the count stands unless the key has an edge admitting a touched type, or
// a vertex no edge mentions while vertices were touched. Anything that does
// not parse as such a key — the matcher's range-count keys among them —
// reports true: when in doubt, recount.
func CountMayChange(key string, edgeTypes map[string]struct{}, vertices bool) bool {
	var stack [2 * keyScratch]int
	vids, covered := stack[:0:keyScratch], stack[keyScratch:keyScratch]
	pos := 0
	// A record is at least three bytes; a last single byte is the cap, and a
	// longer cap starts with a continuation byte, never with a record tag.
	for len(key)-pos > 1 && (key[pos] == 'v' || key[pos] == 'e') {
		tag := key[pos]
		id, n := keyUvarint(key, pos+1)
		if n <= 0 {
			return true
		}
		pos += 1 + n
		size, n := keyUvarint(key, pos)
		if n <= 0 || uint64(len(key)-pos-n) < size {
			return true
		}
		pos += n
		payload := key[pos : pos+int(size)]
		pos += int(size)
		if tag == 'v' {
			vids = append(vids, int(id))
			continue
		}
		from, n := keyUvarint(payload, 0)
		if n <= 0 {
			return true
		}
		to, m := keyUvarint(payload, n)
		if m <= 0 || len(payload) < n+m+1 {
			return true
		}
		covered = append(covered, int(from), int(to))
		if EdgeCountMayChange(payload[n+m+1:], edgeTypes) { // skip the record's own dirs byte
			return true
		}
	}
	if len(vids) == 0 {
		return true
	}
	if vertices {
		for _, id := range vids {
			if !containsInt(covered, id) {
				return true
			}
		}
	}
	return false
}

// EdgeCountMayChange is CountMayChange for the number of data edges matching
// one query edge regardless of endpoints: key is an AppendConstraintKey
// encoding, and the count stands unless the edge admits a touched type.
func EdgeCountMayChange(key string, edgeTypes map[string]struct{}) bool {
	if len(key) < 2 {
		return true
	}
	ntypes, n := keyUvarint(key, 1) // key[0] is the direction set
	if n <= 0 {
		return true
	}
	if ntypes == 0 {
		return len(edgeTypes) > 0
	}
	pos := 1 + n
	for ; ntypes > 0; ntypes-- {
		size, n := keyUvarint(key, pos)
		if n <= 0 || uint64(len(key)-pos-n) < size {
			return true
		}
		pos += n
		if _, hit := edgeTypes[key[pos:pos+int(size)]]; hit {
			return true
		}
		pos += int(size)
	}
	return false
}

// ---------------------------------------------------------------------------
// Delta-keyed candidate generation

// ApplyKeyed derives a child candidate from parent incrementally: the child
// query shares every untouched element struct with the parent (only the
// element the operation modifies is deep-cloned before mutation), and the
// child's canonical key is derived from parentKey by splicing only the
// touched element records — every untouched record is copied verbatim.
// parentKey must be parent's key (parent.Key() or a key previously returned
// by ApplyKeyed for parent). The hot child-generation loops of the
// rewriting searches call this instead of Apply + Canonical, which
// deep-cloned and re-canonicalized the entire query for every candidate.
//
// Because of the structural sharing, both parent and child must be treated
// as immutable after the call (the searches only ever read candidates); use
// Apply for an independent deep copy.
//
// Unknown Op implementations (or a malformed parentKey) fall back to a full
// deep clone and re-encode, so the result is always the child's exact
// canonical key.
func ApplyKeyed(parent *Query, parentKey string, op Op) (*Query, string, error) {
	const (
		editTouch = iota // re-encode the op's target element record
		editDelEdge
		editDelVertex // drop the vertex record and its incident edge records
		editInsEdge   // append the new edge's record
		editFull      // unknown op: re-encode from scratch
	)
	mode := editFull
	var incident []int
	switch op.(type) {
	case DeleteEdge:
		mode = editDelEdge
	case DeleteVertex:
		mode = editDelVertex
		incident = parent.Incident(op.Target().ID)
	case InsertEdge:
		mode = editInsEdge
	case DeleteDirection, SetDirection, DeleteType, AddType, RemoveType,
		DeletePredicate, InsertPredicate, ExtendPredicate, ShrinkPredicate,
		WidenRange, NarrowRange:
		mode = editTouch
	}
	var child *Query
	if mode == editFull {
		// Unknown operation: it may mutate anything, so pay the deep copy.
		child = parent.Clone()
	} else {
		// Copy-on-write: fresh element maps sharing the element structs;
		// only the element a touch op mutates gets its own deep clone
		// (deletions and insertions never mutate an existing element).
		child = parent.cloneShallow()
		if mode == editTouch {
			t := op.Target()
			if t.Kind == TargetVertex {
				if v := child.vertices[t.ID]; v != nil {
					child.vertices[t.ID] = v.Clone()
				}
			} else if e := child.edges[t.ID]; e != nil {
				child.edges[t.ID] = e.Clone()
			}
		}
	}
	if err := op.Apply(child); err != nil {
		return nil, "", fmt.Errorf("%w: %s", err, op)
	}
	switch mode {
	case editInsEdge:
		// AddEdge allocated the next ascending id, so the new record belongs
		// at the very end of the edge-record region — the end of the key.
		out := make([]byte, 0, len(parentKey)+48)
		out = append(out, parentKey...)
		out = appendEdgeRecord(out, child.edges[child.nextEID-1])
		return child, string(out), nil
	case editTouch:
		t := op.Target()
		tag := byte('v')
		if t.Kind == TargetEdge {
			tag = 'e'
		}
		if key, ok := spliceKey(parentKey, child, tag, t.ID, nil); ok {
			return child, key, nil
		}
	case editDelEdge:
		if key, ok := spliceKey(parentKey, child, 'e', op.Target().ID, nil); ok {
			return child, key, nil
		}
	case editDelVertex:
		if key, ok := spliceKey(parentKey, child, 'v', op.Target().ID, incident); ok {
			return child, key, nil
		}
	}
	return child, child.Key(), nil
}

// spliceKey rewrites parentKey for the child: the record (tag, id) is
// re-encoded from the child when the child still holds the element and
// dropped otherwise; records for dropEdges (incident edges of a deleted
// vertex) are dropped. Reports ok=false on a malformed key, in which case
// the caller re-encodes from scratch.
func spliceKey(parentKey string, child *Query, tag byte, id int, dropEdges []int) (string, bool) {
	out := make([]byte, 0, len(parentKey)+32)
	pos := 0
	for pos < len(parentKey) {
		start := pos
		rtag := parentKey[pos]
		pos++
		rid, n := keyUvarint(parentKey, pos)
		if n <= 0 {
			return "", false
		}
		pos += n
		plen, n := keyUvarint(parentKey, pos)
		if n <= 0 {
			return "", false
		}
		pos += n + int(plen)
		if pos > len(parentKey) {
			return "", false
		}
		if rtag == tag && int(rid) == id {
			switch {
			case tag == 'v' && child.vertices[id] != nil:
				out = appendVertexRecord(out, child.vertices[id])
			case tag == 'e' && child.edges[id] != nil:
				out = appendEdgeRecord(out, child.edges[id])
			}
			continue // element gone from the child: record dropped
		}
		if rtag == 'e' && containsInt(dropEdges, int(rid)) {
			continue
		}
		out = append(out, parentKey[start:pos]...)
	}
	return string(out), true
}

// keyUvarint decodes a uvarint from s at offset; n <= 0 signals a malformed
// encoding (binary.Uvarint semantics, but over a string to avoid copying).
func keyUvarint(s string, offset int) (v uint64, n int) {
	var shift uint
	for i := offset; i < len(s); i++ {
		b := s[i]
		if b < 0x80 {
			if i-offset >= binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i - offset + 1)
			}
			return v | uint64(b)<<shift, i - offset + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, -(i - offset + 1)
		}
	}
	return 0, 0
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
