package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/graph"
)

var le = binary.LittleEndian

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// heap interns strings in first-encounter order. Because Pack walks the
// graph in one fixed order, the heap — and therefore the whole file — is a
// pure function of the graph's logical content.
type heap struct {
	index map[string]uint32
	strs  []string
	size  int
}

func (h *heap) ref(s string) uint32 {
	if i, ok := h.index[s]; ok {
		return i
	}
	i := uint32(len(h.strs))
	h.index[s] = i
	h.strs = append(h.strs, s)
	h.size += len(s)
	return i
}

// Pack serializes the graph (frozen state included; Pack freezes if needed)
// into the snapshot format.
func Pack(g *graph.Graph) ([]byte, error) {
	csr := g.FrozenCSR()
	nv, ne := g.NumVertices(), g.NumEdges()
	live := g.NumLiveEdges()
	if len(csr.OutAdj) != live || len(csr.InAdj) != live {
		return nil, fmt.Errorf("snapshot: CSR has %d/%d half-edges, want %d live", len(csr.OutAdj), len(csr.InAdj), live)
	}

	h := &heap{index: make(map[string]uint32, 256)}

	// Deterministic walk order — mirrored exactly on repack of a loaded
	// graph: type table, indexed keys, vertex attrs by id, edges by id.
	typeRefs := make([]uint32, len(csr.TypeNames))
	for i, t := range csr.TypeNames {
		typeRefs[i] = h.ref(t)
	}
	indexedKeys := g.IndexedKeys()
	indexedRefs := make([]uint32, len(indexedKeys))
	for i, k := range indexedKeys {
		indexedRefs[i] = h.ref(k)
	}

	// Attribute records are decoded from the columns, in key order.
	var recs []attrRec
	vcols, ecols := g.VertexColumns(), g.EdgeColumns()
	vkeys, ekeys := slices.Sorted(maps.Keys(vcols)), slices.Sorted(maps.Keys(ecols))
	appendAttrs := func(cols map[string]*graph.Column, keys []string, id int) error {
		for _, k := range keys {
			c := cols[k]
			code := c.Codes[id]
			if code == 0 {
				continue
			}
			v := c.Vals[code]
			rec := attrRec{Key: h.ref(k), Kind: uint32(v.Kind)}
			switch v.Kind {
			case graph.KindString:
				rec.Val = uint64(h.ref(v.Str))
			case graph.KindNumber:
				rec.Val = math.Float64bits(v.Num)
			case graph.KindBool:
				if v.Bool {
					rec.Val = 1
				}
			default:
				return fmt.Errorf("snapshot: unencodable attribute kind %d for key %q", v.Kind, k)
			}
			recs = append(recs, rec)
		}
		return nil
	}

	vAttrOff := make([]uint32, nv+1)
	for i := 0; i < nv; i++ {
		vAttrOff[i] = uint32(len(recs))
		if err := appendAttrs(vcols, vkeys, i); err != nil {
			return nil, err
		}
	}
	vAttrOff[nv] = uint32(len(recs))

	edges := make([]edgeRec, ne)
	eAttrOff := make([]uint32, ne+1)
	for i := 0; i < ne; i++ {
		e := g.Edge(graph.EdgeID(i))
		edges[i] = edgeRec{From: int32(e.From), To: int32(e.To), TypeRef: h.ref(e.Type)}
		eAttrOff[i] = uint32(len(recs))
		if err := appendAttrs(ecols, ekeys, i); err != nil {
			return nil, err
		}
	}
	eAttrOff[ne] = uint32(len(recs))

	removedV := g.RemovedVertices()
	removedE := g.RemovedEdges()

	// Serialize each section.
	strOff := make([]byte, 4*(len(h.strs)+1))
	strBytes := make([]byte, 0, h.size)
	pos := uint32(0)
	for i, s := range h.strs {
		le.PutUint32(strOff[4*i:], pos)
		strBytes = append(strBytes, s...)
		pos += uint32(len(s))
	}
	le.PutUint32(strOff[4*len(h.strs):], pos)

	sections := [nSections][]byte{
		secStrOff:   strOff,
		secStrBytes: strBytes,
		secTypes:    u32Bytes(typeRefs),
		secVAttrOff: u32Bytes(vAttrOff),
		secEAttrOff: u32Bytes(eAttrOff),
		secAttrRecs: attrRecBytes(recs),
		secEdges:    edgeRecBytes(edges),
		secOutOff:   i32Bytes(csr.OutOff),
		secInOff:    i32Bytes(csr.InOff),
		secOutAdj:   adjBytes(csr.OutAdj),
		secInAdj:    adjBytes(csr.InAdj),
		secIndexed:  u32Bytes(indexedRefs),
		secRemovedV: vidBytes(removedV),
		secRemovedE: eidBytes(removedE),
	}

	// Lay out: header, section table, then 8-aligned sections.
	off := uint64(headerSize + tableSize)
	table := make([]byte, tableSize)
	total := off
	for i, sec := range sections {
		total = align8(total)
		le.PutUint64(table[16*i:], total)
		le.PutUint64(table[16*i+8:], uint64(len(sec)))
		total += uint64(len(sec))
	}

	buf := make([]byte, total)
	copy(buf[headerSize:], table)
	for i, sec := range sections {
		copy(buf[le.Uint64(table[16*i:]):], sec)
	}

	hdr := buf[:headerSize]
	copy(hdr, magic)
	le.PutUint32(hdr[8:], formatVersion)
	le.PutUint32(hdr[12:], endianMark)
	le.PutUint32(hdr[16:], nSections)
	le.PutUint64(hdr[24:], uint64(nv))
	le.PutUint64(hdr[32:], uint64(ne))
	le.PutUint64(hdr[40:], uint64(len(h.strs)))
	le.PutUint64(hdr[48:], uint64(len(recs)))
	le.PutUint64(hdr[56:], uint64(len(csr.TypeNames)))
	le.PutUint64(hdr[64:], uint64(len(indexedRefs)))
	le.PutUint64(hdr[72:], uint64(len(removedV)))
	le.PutUint64(hdr[80:], uint64(len(removedE)))
	le.PutUint32(hdr[88:], crc32.Checksum(buf[headerSize:], castagnoli))
	return buf, nil
}

// WriteFile packs the graph and writes it atomically (temp file + rename in
// the destination directory), returning the written file's manifest.
func WriteFile(path string, g *graph.Graph) (Manifest, error) {
	blob, err := Pack(g)
	if err != nil {
		return Manifest{}, err
	}
	man := Manifest{
		Path:      path,
		Bytes:     int64(len(blob)),
		Checksum:  le.Uint32(blob[88:]),
		Version:   formatVersion,
		Vertices:  int(le.Uint64(blob[24:])),
		Edges:     int(le.Uint64(blob[32:])),
		LiveEdges: int(le.Uint64(blob[32:])) - int(le.Uint64(blob[80:])),
		EdgeTypes: int(le.Uint64(blob[56:])),
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return Manifest{}, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return Manifest{}, err
	}
	if err := tmp.Close(); err != nil {
		return Manifest{}, err
	}
	return man, os.Rename(tmp.Name(), path)
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

func u32Bytes(v []uint32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		le.PutUint32(b[4*i:], x)
	}
	return b
}

func i32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		le.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func vidBytes(v []graph.VertexID) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		le.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func eidBytes(v []graph.EdgeID) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		le.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func attrRecBytes(recs []attrRec) []byte {
	b := make([]byte, attrRecSize*len(recs))
	for i, r := range recs {
		p := b[attrRecSize*i:]
		le.PutUint32(p, r.Key)
		le.PutUint32(p[4:], r.Kind)
		le.PutUint64(p[8:], r.Val)
	}
	return b
}

func edgeRecBytes(recs []edgeRec) []byte {
	b := make([]byte, edgeRecSize*len(recs))
	for i, r := range recs {
		p := b[edgeRecSize*i:]
		le.PutUint32(p, uint32(r.From))
		le.PutUint32(p[4:], uint32(r.To))
		le.PutUint32(p[8:], r.TypeRef)
	}
	return b
}

func adjBytes(adj []graph.Adj) []byte {
	b := make([]byte, adjSize*len(adj))
	for i, a := range adj {
		p := b[adjSize*i:]
		le.PutUint32(p, uint32(a.Edge))
		le.PutUint32(p[4:], uint32(a.Vertex))
		le.PutUint32(p[8:], uint32(a.Type))
	}
	return b
}
