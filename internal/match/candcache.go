package match

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/query"
)

// candEntry is one cached candidate set: the data vertices satisfying a
// flattened predicate set, with the predicates that selected them (what
// NewSuccessor tests a batch's vertices against). The set is a bitset over
// the words lo … lo+len(bits)-1 only — the span from its smallest to its
// largest member — so an entry costs what its members span, not the whole
// graph. order lists the members in access-path order when that is not
// ascending (a value disjunction on an indexed key, whose posting lists run
// value after value) and is nil otherwise. Entries are shared between plans
// and read-only after insertion.
type candEntry struct {
	n     int
	lo    int
	bits  []uint64
	order []graph.VertexID
	preds []flatPred
}

// has reports whether data vertex v is a member: one bound check against the
// window and one bit test. expandOver and countOver make the same test
// inline, with lo and bits hoisted out of their adjacency loops.
func (e *candEntry) has(v graph.VertexID) bool {
	w := int(v)>>6 - e.lo
	return uint(w) < uint(len(e.bits)) && e.bits[w]&(1<<(uint(v)&63)) != 0
}

// newCandEntry builds the set of ids: distinct vertices, listed in
// access-path order (the posting lists of distinct values are disjoint).
func newCandEntry(ids []graph.VertexID, preds []flatPred) *candEntry {
	e := &candEntry{n: len(ids), preds: append([]flatPred(nil), preds...)}
	if len(ids) == 0 {
		return e
	}
	lo, hi, ascending := ids[0], ids[0], true
	for i := 1; i < len(ids); i++ {
		id := ids[i]
		ascending = ascending && id > ids[i-1]
		lo, hi = min(lo, id), max(hi, id)
	}
	e.lo = int(lo) >> 6
	e.bits = make([]uint64, int(hi)>>6-e.lo+1)
	for _, id := range ids {
		e.bits[int(id)>>6-e.lo] |= 1 << (uint(id) & 63)
	}
	if !ascending {
		e.order = slices.Clone(ids)
	}
	return e
}

// bytes approximates the entry's resident size under a key of keyLen bytes.
func (e *candEntry) bytes(keyLen int) int {
	return 64 + len(e.bits)*8 + len(e.order)*4 + len(e.preds)*32 + keyLen
}

// candCacheCap and candCacheMaxBytes bound the resident cache by entry
// count and by approximate memory (an entry's bitset spans its members, so a
// set of vertices scattered over the graph still costs a bit per data vertex
// and entry count alone would not bound memory on large graphs): steady-state
// workloads — whose distinct vertex predicates number in the dozens — stay
// permanently warm while adversarial predicate streams stay bounded.
const (
	candCacheCap      = 8192
	candCacheMaxBytes = 64 << 20
)

// candidates returns the shared candidate set of one flattened predicate set
// from the cache; a miss resolves it — the access path collects its ids in
// cs.ids — and Puts it. The entry is read-only.
func (m *Matcher) candidates(cs *compileScratch, preds []flatPred) *candEntry {
	cs.key = appendPredKey(cs.key[:0], preds)
	if e, ok := m.candCache.Get(cs.key); ok {
		return e
	}
	e := newCandEntry(m.candidatesFlat(preds, &cs.ids), preds)
	m.candCache.Put(cs.key, e, e.bytes(len(cs.key)))
	return e
}

// CandCacheStats reports the candidate cache's hit and miss counters and its
// resident entry count. Every miss is one full candidate resolution (an index
// probe or a graph scan); a high hit rate means the rewriting searches and
// the plan compiler are reusing candidate sets across query variants.
func (m *Matcher) CandCacheStats() (hits, misses, entries int) {
	return m.candCache.Stats().Counts()
}

// appendPredKey appends an unambiguous binary encoding of a flattened
// (key-sorted) predicate set: every string is length-prefixed, numbers are
// raw float bits, so distinct predicate sets never collide.
func appendPredKey(b []byte, preds []flatPred) []byte {
	for i := range preds {
		fp := &preds[i]
		b = appendString(b, fp.key)
		if fp.pred.Kind == query.Range {
			b = append(b, 'R')
			b = appendU64(b, math.Float64bits(fp.pred.Lo))
			b = appendU64(b, math.Float64bits(fp.pred.Hi))
			var f byte
			if fp.pred.IncLo {
				f |= 1
			}
			if fp.pred.IncHi {
				f |= 2
			}
			b = append(b, f)
		} else {
			b = append(b, 'V')
			b = binary.AppendUvarint(b, uint64(len(fp.pred.Vals)))
			for _, v := range fp.pred.Vals {
				b = append(b, byte(v.Kind))
				switch v.Kind {
				case graph.KindNumber:
					b = appendU64(b, math.Float64bits(v.Num))
				case graph.KindBool:
					if v.Bool {
						b = append(b, 1)
					} else {
						b = append(b, 0)
					}
				default:
					b = appendString(b, v.Str)
				}
			}
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
