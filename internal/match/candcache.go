package match

import (
	"encoding/binary"
	"math"

	"repro/internal/graph"
	"repro/internal/query"
)

// candEntry is one cached candidate resolution: the matching data vertices
// and the same set as a bitset over all data vertices, with the predicates
// that selected them (what NewSuccessor tests a batch's vertices against).
// Entries are shared between plans and read-only after insertion.
type candEntry struct {
	list  []graph.VertexID
	bits  []uint64
	preds []flatPred
}

// bytes approximates the entry's resident size under a key of keyLen bytes.
func (e *candEntry) bytes(keyLen int) int { return len(e.list)*4 + len(e.bits)*8 + keyLen }

// candCacheCap and candCacheMaxBytes bound the resident cache by entry
// count and by approximate memory (every entry carries a bitset sized to
// the whole data graph, so entry count alone would not bound memory on
// large graphs): steady-state workloads — whose distinct vertex predicates
// number in the dozens — stay permanently warm while adversarial predicate
// streams stay bounded.
const (
	candCacheCap      = 8192
	candCacheMaxBytes = 64 << 20
)

// candidates resolves the candidate list and bitset for one flattened
// predicate set, consulting the cache first. words is the bitset length for
// the current graph.
func (m *Matcher) candidates(p *Plan, preds []flatPred, words int) ([]graph.VertexID, []uint64) {
	p.keyBuf = appendPredKey(p.keyBuf[:0], preds)
	e := m.resolveCandidates(p.keyBuf, preds, words, &p.scratch)
	return e.list, e.bits
}

// resolveCandidates returns the shared cache entry for one flattened
// predicate set keyed by key; a miss resolves it once however many requests
// ask (cache.Do). The entry is read-only; scratch is the caller's reusable
// pool buffer for the indexed access path.
func (m *Matcher) resolveCandidates(key []byte, preds []flatPred, words int, scratch *[]graph.VertexID) *candEntry {
	if e, ok := m.candCache.Get(key); ok {
		return e
	}
	return m.candCache.Do(key, nil, func() (*candEntry, int) {
		list, bits := m.candidatesFlat(preds, words, scratch)
		e := &candEntry{list: list, bits: bits, preds: append([]flatPred(nil), preds...)}
		return e, e.bytes(len(key))
	})
}

// CandCacheStats reports the candidate cache's hit and miss counters and its
// resident entry count. Every miss is one full candidate resolution (an index
// probe or a graph scan); a high hit rate means the rewriting searches and
// the plan compiler are reusing candidate lists across query variants.
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
