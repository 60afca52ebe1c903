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
	// graph: type table, indexed keys, columns, edges by id.
	typeRefs := make([]uint32, len(csr.TypeNames))
	for i, t := range csr.TypeNames {
		typeRefs[i] = h.ref(t)
	}
	indexedKeys := g.IndexedKeys()
	indexedRefs := make([]uint32, len(indexedKeys))
	for i, k := range indexedKeys {
		indexedRefs[i] = h.ref(k)
	}

	// The columns as they are in memory: vertex columns, then edge columns,
	// each in key order, with their codes and dictionaries verbatim.
	vcols, ecols := g.VertexColumns(), g.EdgeColumns()
	var dir, dict []byte
	codes := make([]byte, 0, 4*(len(vcols)*nv+len(ecols)*ne))
	for kind, cols := range []map[string]*graph.Column{vcols, ecols} {
		for _, k := range slices.Sorted(maps.Keys(cols)) {
			c := cols[k]
			dir = le.AppendUint32(dir, uint32(kind))
			dir = le.AppendUint32(dir, h.ref(k))
			dir = le.AppendUint32(dir, uint32(len(dict)/dictRecSize))
			dir = le.AppendUint32(dir, uint32(len(c.Vals)-1))
			codes = appendU32(codes, c.Codes)
			for _, v := range c.Vals[1:] {
				var bits uint64
				switch v.Kind {
				case graph.KindString:
					bits = uint64(h.ref(v.Str))
				case graph.KindNumber:
					bits = math.Float64bits(v.Num)
				case graph.KindBool:
					if v.Bool {
						bits = 1
					}
				default:
					return nil, fmt.Errorf("snapshot: unencodable attribute kind %d for key %q", v.Kind, k)
				}
				dict = le.AppendUint64(dict, uint64(v.Kind))
				dict = le.AppendUint64(dict, bits)
			}
		}
	}
	edges := make([]byte, 0, edgeRecSize*ne)
	for i := 0; i < ne; i++ {
		e := g.Edge(graph.EdgeID(i))
		edges = le.AppendUint32(edges, uint32(e.From))
		edges = le.AppendUint32(edges, uint32(e.To))
		edges = le.AppendUint32(edges, h.ref(e.Type))
	}

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
		secColumns:  dir,
		secCodes:    codes,
		secDict:     dict,
		secEdges:    edges,
		secOutOff:   u32Bytes(csr.OutOff),
		secInOff:    u32Bytes(csr.InOff),
		secOutAdj:   adjBytes(csr.OutAdj),
		secInAdj:    adjBytes(csr.InAdj),
		secIndexed:  u32Bytes(indexedRefs),
		secRemovedV: u32Bytes(removedV),
		secRemovedE: u32Bytes(removedE),
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
	le.PutUint32(hdr[offVersion:], formatVersion)
	le.PutUint32(hdr[offEndian:], endianMark)
	le.PutUint32(hdr[offSections:], nSections)
	for i, n := range [nCounts]int{
		cntVertices: nv,
		cntEdges:    ne,
		cntStrings:  len(h.strs),
		cntColumns:  len(dir) / colRecSize,
		cntDict:     len(dict) / dictRecSize,
		cntCodes:    len(codes) / 4,
		cntTypes:    len(csr.TypeNames),
		cntIndexed:  len(indexedRefs),
		cntRemovedV: len(removedV),
		cntRemovedE: len(removedE),
	} {
		le.PutUint64(hdr[offCounts+8*i:], uint64(n))
	}
	le.PutUint32(hdr[offCRC:], crc32.Checksum(buf[headerSize:], castagnoli))
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
		Checksum:  le.Uint32(blob[offCRC:]),
		Version:   formatVersion,
		Vertices:  count(blob, cntVertices),
		Edges:     count(blob, cntEdges),
		LiveEdges: count(blob, cntEdges) - count(blob, cntRemovedE),
		EdgeTypes: count(blob, cntTypes),
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

// count reads header count i of a snapshot image.
func count(b []byte, i int) int { return int(le.Uint64(b[offCounts+8*i:])) }

func appendU32[T ~int32 | ~uint32](b []byte, v []T) []byte {
	for _, x := range v {
		b = le.AppendUint32(b, uint32(x))
	}
	return b
}

func u32Bytes[T ~int32 | ~uint32](v []T) []byte { return appendU32(make([]byte, 0, 4*len(v)), v) }

func adjBytes(adj []graph.Adj) []byte {
	b := make([]byte, 0, adjSize*len(adj))
	for _, a := range adj {
		b = le.AppendUint32(b, uint32(a.Edge))
		b = le.AppendUint32(b, uint32(a.Vertex))
		b = le.AppendUint32(b, uint32(a.Type))
	}
	return b
}
