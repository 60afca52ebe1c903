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
// and the column codes are reinterpreted in place (the graph then aliases
// data, which must stay mapped and unmodified: a later Seal copies what it
// writes); without it every section is decoded into fresh memory, independent
// of byte order. The columns are handed to graph.Assemble as stored.
func Load(data []byte, zeroCopy bool) (*graph.Graph, Manifest, error) {
	var man Manifest
	if len(data) < headerSize {
		return nil, man, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, man, fmt.Errorf("%w: %q", ErrMagic, string(data[:8]))
	}
	if em := le.Uint32(data[offEndian:]); em != endianMark {
		return nil, man, fmt.Errorf("%w: marker %#08x, want %#08x", ErrEndianness, em, uint32(endianMark))
	}
	if v := le.Uint32(data[offVersion:]); v != formatVersion {
		return nil, man, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, formatVersion)
	}
	if n := le.Uint32(data[offSections:]); n != nSections {
		return nil, man, fmt.Errorf("%w: %d sections, want %d", ErrFormat, n, nSections)
	}
	// A count that does not fit an int is implausible; every other one is
	// bounded below, before anything is allocated, by the bytes of its section
	// — compared by division or subtraction, so no product of counts can wrap.
	var n [nCounts]int
	for i := range n {
		if n[i] = count(data, i); n[i] < 0 {
			return nil, man, fmt.Errorf("%w: implausible element counts", ErrFormat)
		}
	}
	nv, ne, nStrings := n[cntVertices], n[cntEdges], n[cntStrings]
	if n[cntRemovedE] > ne || n[cntRemovedV] > nv {
		return nil, man, fmt.Errorf("%w: implausible element counts", ErrFormat)
	}
	live := ne - n[cntRemovedE]

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

	if sum := crc32.Checksum(data[headerSize:], castagnoli); sum != le.Uint32(data[offCRC:]) {
		return nil, man, fmt.Errorf("%w: computed %#08x, header says %#08x", ErrChecksum, sum, le.Uint32(data[offCRC:]))
	}

	want := func(i int, n, width int) error {
		if len(secs[i])%width != 0 || len(secs[i])/width != n {
			return fmt.Errorf("%w: section %d is %d bytes, want %d×%d", ErrFormat, i, len(secs[i]), n, width)
		}
		return nil
	}
	for _, chk := range []error{
		want(secStrOff, nStrings+1, 4),
		want(secTypes, n[cntTypes], 4),
		want(secColumns, n[cntColumns], colRecSize),
		want(secCodes, n[cntCodes], 4),
		want(secDict, n[cntDict], dictRecSize),
		want(secEdges, ne, edgeRecSize),
		want(secOutOff, nv+1, 4),
		want(secInOff, nv+1, 4),
		want(secOutAdj, live, adjSize),
		want(secInAdj, live, adjSize),
		want(secIndexed, n[cntIndexed], 4),
		want(secRemovedV, n[cntRemovedV], 4),
		want(secRemovedE, n[cntRemovedE], 4),
	} {
		if chk != nil {
			return nil, man, chk
		}
	}

	// String heap: one copy of its bytes (so no string aliases the mapping),
	// every string a slice of it.
	strOff := dec32[uint32](secs[secStrOff])
	heapStr := string(secs[secStrBytes])
	strs := make([]string, nStrings)
	for i := 0; i < nStrings; i++ {
		a, b := strOff[i], strOff[i+1]
		if a > b || int(b) > len(heapStr) {
			return nil, man, fmt.Errorf("%w: string %d spans [%d,%d) of %d-byte heap", ErrFormat, i, a, b, len(heapStr))
		}
		strs[i] = heapStr[a:b]
	}
	getStr := func(ref uint32) (string, error) {
		if int(ref) >= nStrings {
			return "", fmt.Errorf("%w: string ref %d of %d", ErrFormat, ref, nStrings)
		}
		return strs[ref], nil
	}

	var codes []uint32
	var outOff, inOff []int32
	var outAdj, inAdj []graph.Adj
	if zeroCopy {
		codes = view[uint32](secs[secCodes])
		outOff = view[int32](secs[secOutOff])
		inOff = view[int32](secs[secInOff])
		outAdj = view[graph.Adj](secs[secOutAdj])
		inAdj = view[graph.Adj](secs[secInAdj])
	} else {
		codes = dec32[uint32](secs[secCodes])
		outOff = dec32[int32](secs[secOutOff])
		inOff = dec32[int32](secs[secInOff])
		outAdj = decAdj(secs[secOutAdj])
		inAdj = decAdj(secs[secInAdj])
	}

	// The columns, in directory order, as windows of one codes and one value
	// array. Each record takes its codes and its dictionary from what the
	// sections have left, so a header naming K columns of N elements over a
	// short codes section is refused before anything is allocated for them.
	cols := [2]map[string]*graph.Column{make(map[string]*graph.Column), make(map[string]*graph.Column)}
	vals := make([]graph.Value, n[cntDict]+n[cntColumns])
	dir, dict := secs[secColumns], secs[secDict]
	codeAt, dictAt := 0, 0
	var prevKind uint32
	var prevKey string
	for i := 0; i < n[cntColumns]; i++ {
		p := dir[colRecSize*i:]
		kind, off, size := le.Uint32(p), int(le.Uint32(p[8:])), int(le.Uint32(p[12:]))
		key, err := getStr(le.Uint32(p[4:]))
		if err != nil {
			return nil, man, err
		}
		if kind > 1 || i > 0 && (kind < prevKind || kind == prevKind && key <= prevKey) {
			return nil, man, fmt.Errorf("%w: column %d (%d, %q) out of order", ErrFormat, i, kind, key)
		}
		per := [2]int{nv, ne}[kind]
		if off != dictAt || size > n[cntDict]-dictAt || per > n[cntCodes]-codeAt {
			return nil, man, fmt.Errorf("%w: column %q wants dictionary [%d,+%d) and %d codes, %d and %d are left",
				ErrFormat, key, off, size, per, n[cntDict]-dictAt, n[cntCodes]-codeAt)
		}
		c := &graph.Column{Codes: codes[codeAt : codeAt+per], Vals: vals[dictAt+i : dictAt+i+size+1]}
		for j := 1; j <= size; j++ {
			r := dict[dictRecSize*(dictAt+j-1):]
			kind, bits := le.Uint64(r), le.Uint64(r[8:])
			switch {
			case kind == uint64(graph.KindString) && bits < uint64(nStrings):
				c.Vals[j] = graph.S(strs[bits])
			case kind == uint64(graph.KindNumber):
				c.Vals[j] = graph.N(math.Float64frombits(bits))
			case kind == uint64(graph.KindBool) && bits <= 1:
				c.Vals[j] = graph.B(bits == 1)
			default:
				return nil, man, fmt.Errorf("%w: column %q value %d is kind %d, bits %#x", ErrFormat, key, j, kind, bits)
			}
		}
		cols[kind][key] = c
		codeAt, dictAt = codeAt+per, dictAt+size
		prevKind, prevKey = kind, key
	}
	if codeAt != n[cntCodes] || dictAt != n[cntDict] {
		return nil, man, fmt.Errorf("%w: the columns hold %d of %d codes and %d of %d dictionary values",
			ErrFormat, codeAt, n[cntCodes], dictAt, n[cntDict])
	}

	edges := make([]graph.Edge, ne)
	eb := secs[secEdges]
	for i := 0; i < ne; i++ {
		p := eb[edgeRecSize*i:]
		typ, err := getStr(le.Uint32(p[8:]))
		if err != nil {
			return nil, man, err
		}
		edges[i] = graph.Edge{
			ID:   graph.EdgeID(i),
			From: graph.VertexID(int32(le.Uint32(p))),
			To:   graph.VertexID(int32(le.Uint32(p[4:]))),
			Type: typ,
		}
	}

	typeNames := make([]string, n[cntTypes])
	for i, ref := range dec32[uint32](secs[secTypes]) {
		s, err := getStr(ref)
		if err != nil {
			return nil, man, err
		}
		typeNames[i] = s
	}
	indexedKeys := make([]string, n[cntIndexed])
	for i, ref := range dec32[uint32](secs[secIndexed]) {
		s, err := getStr(ref)
		if err != nil {
			return nil, man, err
		}
		indexedKeys[i] = s
	}

	g, err := graph.Assemble(graph.SnapshotParts{
		Edges:           edges,
		VertexColumns:   cols[0],
		EdgeColumns:     cols[1],
		RemovedVertices: dec32[graph.VertexID](secs[secRemovedV]),
		RemovedEdges:    dec32[graph.EdgeID](secs[secRemovedE]),
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
		Checksum:  le.Uint32(data[offCRC:]),
		Version:   formatVersion,
		Vertices:  nv,
		Edges:     ne,
		LiveEdges: live,
		EdgeTypes: n[cntTypes],
	}
	return g, man, nil
}

// dec32 decodes little-endian 32-bit words.
func dec32[T ~int32 | ~uint32](b []byte) []T {
	v := make([]T, len(b)/4)
	for i := range v {
		v[i] = T(le.Uint32(b[4*i:]))
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
