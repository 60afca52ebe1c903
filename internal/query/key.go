package query

import (
	"encoding/binary"
	"fmt"
	"maps"
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
// extended slice. For up to keyScratch predicates per element it performs no
// allocations beyond growing dst.
func (q *Query) AppendKey(dst []byte) []byte {
	for _, v := range q.vertices {
		dst = appendVertexRecord(dst, v)
	}
	for _, e := range q.edges {
		dst = appendEdgeRecord(dst, e)
	}
	return dst
}

// fragment resolves the subquery the given edges induce to positions in
// q.vertices and q.edges, ascending and without repeats; unknown edge ids
// are ignored, as SubqueryByEdges ignores them. The results extend vs and es.
func (q *Query) fragment(edgeIDs, vs, es []int) (vidx, eidx []int) {
	for _, eid := range edgeIDs {
		if j := indexOf(q.edges, eid); j >= 0 {
			es = append(es, j)
			vs = append(vs, indexOf(q.vertices, q.edges[j].From), indexOf(q.vertices, q.edges[j].To))
		}
	}
	slices.Sort(vs)
	slices.Sort(es)
	return slices.Compact(vs), slices.Compact(es)
}

// AppendKeyByEdges appends the key of the subquery the given edges induce —
// byte for byte q.SubqueryByEdges(edgeIDs).AppendKey(dst) — without building
// that subquery: the records of the edges' endpoints, then of the edges, ids
// ascending.
func (q *Query) AppendKeyByEdges(dst []byte, edgeIDs []int) []byte {
	var vstack, estack [keyScratch]int
	vidx, eidx := q.fragment(edgeIDs, vstack[:0], estack[:0])
	for _, i := range vidx {
		dst = appendVertexRecord(dst, q.vertices[i])
	}
	for _, j := range eidx {
		dst = appendEdgeRecord(dst, q.edges[j])
	}
	return dst
}

// AppendKeyRecordsByEdges is AppendKeyByEdges for a caller that holds q's own
// key and its record offsets (AppendRecordOffsets): the records are cut out
// of the key instead of being encoded again from the predicate maps.
func (q *Query) AppendKeyRecordsByEdges(dst, key []byte, offs, edgeIDs []int) []byte {
	var vstack, estack [keyScratch]int
	vidx, eidx := q.fragment(edgeIDs, vstack[:0], estack[:0])
	for _, i := range vidx {
		dst = append(dst, key[offs[2*i]:offs[2*i+2]]...)
	}
	for _, j := range eidx {
		j += len(q.vertices)
		dst = append(dst, key[offs[2*j]:offs[2*j+2]]...)
	}
	return dst
}

// Key returns the binary canonical key as a string (usable as a map key).
// Key equality is exactly Canonical() equality.
func (q *Query) Key() string { return string(q.AppendKey(nil)) }

// keyRecord decodes the framing of the element record at key[pos:]: its tag,
// element id, and the offsets of its payload and of the next record. ok is
// false for a malformed record.
func keyRecord[K ~string | ~[]byte](key K, pos int) (tag byte, id, payload, end int, ok bool) {
	rid, n := keyUvarint(key, pos+1)
	if n <= 0 {
		return 0, 0, 0, 0, false
	}
	size, m := keyUvarint(key, pos+1+n)
	payload = pos + 1 + n + m
	if m <= 0 || size > uint64(len(key)-payload) {
		return 0, 0, 0, 0, false
	}
	return key[pos], int(rid), payload, payload + int(size), true
}

// AppendRecordOffsets appends to dst, for each element record of key in
// order, the offset of its tag and of its payload, and last len(key): record
// i is key[o[2i]:o[2i+2]] and its payload key[o[2i+1]:o[2i+2]]. Record i of a
// query's own key belongs to element i of Vertices() followed by Edges().
// ok is false for a malformed key.
func AppendRecordOffsets[K ~string | ~[]byte](dst []int, key K) (offs []int, ok bool) {
	for pos := 0; pos < len(key); {
		_, _, payload, end, ok := keyRecord(key, pos)
		if !ok {
			return dst, false
		}
		dst = append(dst, pos, payload)
		pos = end
	}
	return append(dst, len(key)), true
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
		tag, id, body, end, ok := keyRecord(key, pos)
		if !ok {
			return true
		}
		payload := key[body:end]
		pos = end
		if tag == 'v' {
			vids = append(vids, id)
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
			if !slices.Contains(covered, id) {
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
// query shares every untouched element struct with the parent, the element
// the operation writes is copied only as deep as the write goes (the struct,
// plus its type lists or its predicate map — predicate values stay shared:
// no operation writes a value list in place), and the child's canonical key
// is derived from parentKey by splicing only the touched element records —
// every untouched record is copied verbatim. parentKey must be parent's key
// (parent.Key() or a key previously returned by ApplyKeyed for parent).
//
// Because of the structural sharing, both parent and child must be treated
// as immutable after the call (the searches only ever read candidates, from
// any number of goroutines); use Apply for an independent deep copy.
//
// Unknown Op implementations (or a malformed parentKey) fall back to a full
// deep clone and re-encode, so the result is always the child's exact
// canonical key.
func ApplyKeyed(parent *Query, parentKey string, op Op) (*Query, string, error) {
	child, t, tag := parent.cloneShallow(), op.Target(), byte('e')
	switch op.(type) {
	case DeleteEdge, InsertEdge:
	case DeleteVertex:
		tag = 'v'
	case DeleteDirection, SetDirection:
		child.own(t, false, false)
	case DeleteType, AddType, RemoveType:
		child.own(t, true, false)
	case DeletePredicate, InsertPredicate, ExtendPredicate, ShrinkPredicate, WidenRange, NarrowRange:
		child.own(t, false, true)
		if t.Kind == TargetVertex {
			tag = 'v'
		}
	default:
		// Unknown operation: it may mutate anything, so pay the deep copy.
		child, tag = parent.Clone(), 0
	}
	if err := op.Apply(child); err != nil {
		return nil, "", fmt.Errorf("%w: %s", err, op)
	}
	if _, ok := op.(InsertEdge); ok {
		// AddEdge allocated the next ascending id, so the new record belongs
		// at the very end of the edge-record region — the end of the key.
		out := make([]byte, 0, len(parentKey)+48)
		out = append(out, parentKey...)
		return child, string(appendEdgeRecord(out, child.edges[len(child.edges)-1])), nil
	}
	if tag != 0 {
		if key, ok := spliceKey(parentKey, child, tag, t.ID); ok {
			return child, key, nil
		}
	}
	return child, child.Key(), nil
}

// own gives q, a shallow clone, a private copy of the element an operation
// is about to write: the struct, and with it the type lists or the predicate
// map when the operation writes those.
func (q *Query) own(t Target, types, preds bool) {
	if t.Kind == TargetVertex {
		if i := indexOf(q.vertices, t.ID); i >= 0 {
			q.vertices[i] = &Vertex{ID: t.ID, Preds: maps.Clone(q.vertices[i].Preds)}
		}
	} else if i := indexOf(q.edges, t.ID); i >= 0 {
		c := *q.edges[i]
		if types {
			c.Types, c.sorted = slices.Clone(c.Types), nil
		}
		if preds {
			c.Preds = maps.Clone(c.Preds)
		}
		q.edges[i] = &c
	}
}

// spliceKey rewrites parentKey for the child: a record is copied when the
// child still holds its element, re-encoded from the child when it is the
// record (tag, id) the operation touched, and dropped otherwise (a deleted
// element, the edges a deleted vertex took along). Records and elements are
// both id-ordered, so one cursor per kind decides. Reports ok=false on a
// malformed key, in which case the caller re-encodes from scratch.
func spliceKey(parentKey string, child *Query, tag byte, id int) (string, bool) {
	out := make([]byte, 0, len(parentKey)+32)
	vs, es := child.vertices, child.edges
	for pos := 0; pos < len(parentKey); {
		rtag, rid, _, end, ok := keyRecord(parentKey, pos)
		if !ok {
			return "", false
		}
		touched := rtag == tag && rid == id
		switch {
		case rtag == 'v' && len(vs) > 0 && vs[0].ID == rid:
			if touched {
				out = appendVertexRecord(out, vs[0])
			} else {
				out = append(out, parentKey[pos:end]...)
			}
			vs = vs[1:]
		case rtag == 'e' && len(es) > 0 && es[0].ID == rid:
			if touched {
				out = appendEdgeRecord(out, es[0])
			} else {
				out = append(out, parentKey[pos:end]...)
			}
			es = es[1:]
		}
		pos = end
	}
	return string(out), len(vs)+len(es) == 0
}

// keyUvarint decodes a uvarint from s at offset; n <= 0 signals a malformed
// encoding (binary.Uvarint semantics, over a string or bytes without copying).
func keyUvarint[K ~string | ~[]byte](s K, offset int) (v uint64, n int) {
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
