package snapshot

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/graph"
)

// Mode selects how ReadFile gets bytes into memory.
type Mode int

const (
	// ModeAuto mmaps when the platform and host byte order allow zero-copy
	// reinterpretation, and falls back to a plain read otherwise.
	ModeAuto Mode = iota
	// ModeRead always reads and decodes through encoding/binary — fully
	// portable, no unsafe, no mmap.
	ModeRead
	// ModeMmap requires the zero-copy path and errors where unsupported.
	ModeMmap
)

// Manifest describes a loaded snapshot for stats and logs.
type Manifest struct {
	Path      string `json:"path,omitempty"`
	Bytes     int64  `json:"bytes"`
	Checksum  uint32 `json:"checksum"`
	Version   int    `json:"version"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	LiveEdges int    `json:"liveEdges"`
	EdgeTypes int    `json:"edgeTypes"`
	Mapped    bool   `json:"mapped"`
}

// Loaded couples the reconstructed graph with its manifest and, for the
// mmap path, the mapping's lifetime: the graph's CSR aliases the mapping,
// so Close must only be called once the graph is unreachable. A serving
// daemon simply never closes.
type Loaded struct {
	Graph    *graph.Graph
	Manifest Manifest
	closer   func() error
}

// Close releases the underlying mapping, if any.
func (l *Loaded) Close() error {
	if l.closer == nil {
		return nil
	}
	c := l.closer
	l.closer = nil
	return c()
}

// ReadFile loads a snapshot from disk.
func ReadFile(path string, mode Mode) (*Loaded, error) {
	zeroOK := mmapSupported && hostLittleEndian()
	if mode == ModeMmap && !zeroOK {
		return nil, fmt.Errorf("snapshot: mmap mode unsupported on this platform (mmap=%v littleEndian=%v)", mmapSupported, hostLittleEndian())
	}
	if mode == ModeRead || !zeroOK {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		g, man, err := Load(data, false)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, path)
		}
		man.Path = path
		return &Loaded{Graph: g, Manifest: man}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerSize {
		return nil, fmt.Errorf("%w: %d bytes (%s)", ErrTruncated, st.Size(), path)
	}
	data, closer, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("snapshot: mmap %s: %w", path, err)
	}
	g, man, err := Load(data, true)
	if err != nil {
		closer()
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	man.Path = path
	man.Mapped = true
	return &Loaded{Graph: g, Manifest: man, closer: closer}, nil
}

// Load reconstructs a graph from a snapshot image. With zeroCopy the CSR
// and record sections are reinterpreted in place (the graph then aliases
// data, which must stay mapped and unmodified); without it every section is
// decoded into fresh memory, independent of byte order. The attribute records
// are handed to graph.Assemble, which encodes them into the columns.
func Load(data []byte, zeroCopy bool) (*graph.Graph, Manifest, error) {
	var man Manifest
	if len(data) < headerSize {
		return nil, man, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, man, fmt.Errorf("%w: %q", ErrMagic, string(data[:8]))
	}
	if em := le.Uint32(data[12:]); em != endianMark {
		return nil, man, fmt.Errorf("%w: marker %#08x, want %#08x", ErrEndianness, em, uint32(endianMark))
	}
	if v := le.Uint32(data[8:]); v != formatVersion {
		return nil, man, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, formatVersion)
	}
	if n := le.Uint32(data[16:]); n != nSections {
		return nil, man, fmt.Errorf("%w: %d sections, want %d", ErrFormat, n, nSections)
	}
	nv := int(le.Uint64(data[24:]))
	ne := int(le.Uint64(data[32:]))
	nStrings := int(le.Uint64(data[40:]))
	nAttrRecs := int(le.Uint64(data[48:]))
	nTypes := int(le.Uint64(data[56:]))
	nIndexed := int(le.Uint64(data[64:]))
	nRemovedV := int(le.Uint64(data[72:]))
	nRemovedE := int(le.Uint64(data[80:]))
	// A count that does not fit an int is implausible; every other one is
	// bounded below, before anything is allocated, by the bytes of its section
	// — compared by division, so no product of a count can wrap.
	if nv < 0 || ne < 0 || nStrings < 0 || nAttrRecs < 0 || nTypes < 0 || nIndexed < 0 || nRemovedV < 0 || nRemovedE < 0 ||
		nRemovedE > ne || nRemovedV > nv {
		return nil, man, fmt.Errorf("%w: implausible element counts", ErrFormat)
	}
	live := ne - nRemovedE

	if len(data) < headerSize+tableSize {
		return nil, man, fmt.Errorf("%w: no room for section table", ErrTruncated)
	}
	var secs [nSections][]byte
	for i := 0; i < nSections; i++ {
		off := le.Uint64(data[headerSize+16*i:])
		length := le.Uint64(data[headerSize+16*i+8:])
		if off%8 != 0 || off < headerSize+tableSize {
			return nil, man, fmt.Errorf("%w: section %d offset %d", ErrFormat, i, off)
		}
		if off+length < off || off+length > uint64(len(data)) {
			return nil, man, fmt.Errorf("%w: section %d spans [%d,%d) of %d bytes", ErrTruncated, i, off, off+length, len(data))
		}
		secs[i] = data[off : off+length]
	}

	if sum := crc32.Checksum(data[headerSize:], castagnoli); sum != le.Uint32(data[88:]) {
		return nil, man, fmt.Errorf("%w: computed %#08x, header says %#08x", ErrChecksum, sum, le.Uint32(data[88:]))
	}

	want := func(i int, n, width int) error {
		if len(secs[i])%width != 0 || len(secs[i])/width != n {
			return fmt.Errorf("%w: section %d is %d bytes, want %d×%d", ErrFormat, i, len(secs[i]), n, width)
		}
		return nil
	}
	for _, chk := range []error{
		want(secStrOff, nStrings+1, 4),
		want(secTypes, nTypes, 4),
		want(secVAttrOff, nv+1, 4),
		want(secEAttrOff, ne+1, 4),
		want(secAttrRecs, nAttrRecs, attrRecSize),
		want(secEdges, ne, edgeRecSize),
		want(secOutOff, nv+1, 4),
		want(secInOff, nv+1, 4),
		want(secOutAdj, live, adjSize),
		want(secInAdj, live, adjSize),
		want(secIndexed, nIndexed, 4),
		want(secRemovedV, nRemovedV, 4),
		want(secRemovedE, nRemovedE, 4),
	} {
		if chk != nil {
			return nil, man, chk
		}
	}

	// String heap. Strings are always materialized (string() copies), so the
	// heap sections never alias the mapping.
	strOff := decUint32(secs[secStrOff])
	heapBytes := secs[secStrBytes]
	strs := make([]string, nStrings)
	for i := 0; i < nStrings; i++ {
		a, b := strOff[i], strOff[i+1]
		if a > b || int(b) > len(heapBytes) {
			return nil, man, fmt.Errorf("%w: string %d spans [%d,%d) of %d-byte heap", ErrFormat, i, a, b, len(heapBytes))
		}
		strs[i] = string(heapBytes[a:b])
	}
	getStr := func(ref uint32) (string, error) {
		if int(ref) >= nStrings {
			return "", fmt.Errorf("%w: string ref %d of %d", ErrFormat, ref, nStrings)
		}
		return strs[ref], nil
	}

	var recs []attrRec
	var outOff, inOff []int32
	var outAdj, inAdj []graph.Adj
	if zeroCopy {
		recs = asAttrRecs(secs[secAttrRecs])
		outOff = asInt32(secs[secOutOff])
		inOff = asInt32(secs[secInOff])
		outAdj = asAdj(secs[secOutAdj])
		inAdj = asAdj(secs[secInAdj])
	} else {
		recs = decAttrRecs(secs[secAttrRecs])
		outOff = decInt32(secs[secOutOff])
		inOff = decInt32(secs[secInOff])
		outAdj = decAdj(secs[secOutAdj])
		inAdj = decAdj(secs[secInAdj])
	}

	attrSpan := func(offs []uint32, i int) (int, int, error) {
		a, b := int(offs[i]), int(offs[i+1])
		if a > b || b > nAttrRecs {
			return 0, 0, fmt.Errorf("%w: attr span %d is [%d,%d) of %d records", ErrFormat, i, a, b, nAttrRecs)
		}
		return a, b, nil
	}
	buildAttrs := func(a, b int) (graph.Attrs, error) {
		if a == b {
			return nil, nil
		}
		attrs := make(graph.Attrs, b-a)
		for _, r := range recs[a:b] {
			key, err := getStr(r.Key)
			if err != nil {
				return nil, err
			}
			var v graph.Value
			switch graph.ValueKind(r.Kind) {
			case graph.KindString:
				s, err := getStr(uint32(r.Val))
				if err != nil {
					return nil, err
				}
				v = graph.S(s)
			case graph.KindNumber:
				v = graph.N(math.Float64frombits(r.Val))
			case graph.KindBool:
				v = graph.B(r.Val != 0)
			default:
				return nil, fmt.Errorf("%w: attribute kind %d", ErrFormat, r.Kind)
			}
			attrs[key] = v
		}
		return attrs, nil
	}

	vAttrOff := decUint32(secs[secVAttrOff])
	vertexAttrs := make([]graph.Attrs, nv)
	for i := 0; i < nv; i++ {
		a, b, err := attrSpan(vAttrOff, i)
		if err != nil {
			return nil, man, err
		}
		if vertexAttrs[i], err = buildAttrs(a, b); err != nil {
			return nil, man, err
		}
	}

	eAttrOff := decUint32(secs[secEAttrOff])
	edges := make([]graph.Edge, ne)
	edgeAttrs := make([]graph.Attrs, ne)
	eb := secs[secEdges]
	for i := 0; i < ne; i++ {
		p := eb[edgeRecSize*i:]
		typ, err := getStr(le.Uint32(p[8:]))
		if err != nil {
			return nil, man, err
		}
		a, b, err := attrSpan(eAttrOff, i)
		if err != nil {
			return nil, man, err
		}
		if edgeAttrs[i], err = buildAttrs(a, b); err != nil {
			return nil, man, err
		}
		edges[i] = graph.Edge{
			ID:   graph.EdgeID(i),
			From: graph.VertexID(int32(le.Uint32(p))),
			To:   graph.VertexID(int32(le.Uint32(p[4:]))),
			Type: typ,
		}
	}

	typeNames := make([]string, nTypes)
	for i, ref := range decUint32(secs[secTypes]) {
		s, err := getStr(ref)
		if err != nil {
			return nil, man, err
		}
		typeNames[i] = s
	}
	indexedKeys := make([]string, nIndexed)
	for i, ref := range decUint32(secs[secIndexed]) {
		s, err := getStr(ref)
		if err != nil {
			return nil, man, err
		}
		indexedKeys[i] = s
	}
	removedV := make([]graph.VertexID, nRemovedV)
	for i, id := range decUint32(secs[secRemovedV]) {
		removedV[i] = graph.VertexID(id)
	}
	removedE := make([]graph.EdgeID, nRemovedE)
	for i, id := range decUint32(secs[secRemovedE]) {
		removedE[i] = graph.EdgeID(id)
	}

	g, err := graph.Assemble(graph.SnapshotParts{
		VertexAttrs:     vertexAttrs,
		Edges:           edges,
		EdgeAttrs:       edgeAttrs,
		RemovedVertices: removedV,
		RemovedEdges:    removedE,
		CSR: graph.CSR{
			OutOff:    outOff,
			InOff:     inOff,
			OutAdj:    outAdj,
			InAdj:     inAdj,
			TypeNames: typeNames,
		},
		IndexedKeys: indexedKeys,
	})
	if err != nil {
		return nil, man, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	man = Manifest{
		Bytes:     int64(len(data)),
		Checksum:  le.Uint32(data[88:]),
		Version:   formatVersion,
		Vertices:  nv,
		Edges:     ne,
		LiveEdges: live,
		EdgeTypes: nTypes,
	}
	return g, man, nil
}

func decUint32(b []byte) []uint32 {
	v := make([]uint32, len(b)/4)
	for i := range v {
		v[i] = le.Uint32(b[4*i:])
	}
	return v
}

func decInt32(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(le.Uint32(b[4*i:]))
	}
	return v
}

func decAdj(b []byte) []graph.Adj {
	v := make([]graph.Adj, len(b)/adjSize)
	for i := range v {
		p := b[adjSize*i:]
		v[i] = graph.Adj{
			Edge:   graph.EdgeID(int32(le.Uint32(p))),
			Vertex: graph.VertexID(int32(le.Uint32(p[4:]))),
			Type:   int32(le.Uint32(p[8:])),
		}
	}
	return v
}

func decAttrRecs(b []byte) []attrRec {
	v := make([]attrRec, len(b)/attrRecSize)
	for i := range v {
		p := b[attrRecSize*i:]
		v[i] = attrRec{Key: le.Uint32(p), Kind: le.Uint32(p[4:]), Val: le.Uint64(p[8:])}
	}
	return v
}
