// Package snapshot defines the persistent on-disk format for a frozen
// property graph: a versioned, checksummed, mmap-friendly binary image of
// the dense vertex/edge tables, the packed CSR adjacency, the edge-type
// table, and the tombstone sets.
//
// Layout (all integers little-endian):
//
//	header (96 B):   magic "WHYDBSNP" · version · endian marker · section
//	                 count · element counts (vertices, edges, strings, attr
//	                 records, types, indexed keys, removed vertices/edges) ·
//	                 CRC32-C of everything after the header
//	section table:   nSections × {offset uint64, length uint64}, offsets
//	                 8-byte aligned from the start of the file
//	sections:        string heap (offsets + bytes), type-name refs, per-
//	                 vertex and per-edge attribute spans, fixed 16 B
//	                 attribute records, fixed 12 B edge records, CSR offset
//	                 tables (int32), CSR half-edge arrays (12 B Adj records),
//	                 indexed-key refs, removed-vertex/edge id lists
//
// Every variable-size value lives in one deduplicated string heap; records
// reference it by index. Fixed-width sections are 8-aligned so a loader on a
// little-endian host can reinterpret them in place over an mmap'd file
// (zero-copy); a portable decode path copies through encoding/binary
// instead. Attribute records are decoded from the graph's columns at pack and
// encoded back into columns at load (graph.Assemble) — the mmap win is the
// O(E) CSR arrays, which dominate the image. A removed element has none.
//
// The writer walks the graph in one deterministic order (type table, indexed
// keys, vertices by id with key-sorted attrs, edges by id), interning heap
// strings on first encounter, so pack → load → pack reproduces the file byte
// for byte.
package snapshot

import "errors"

// Distinct sentinel rejection reasons, each wrapped with detail by the
// loader; match with errors.Is.
var (
	// ErrMagic: the file does not start with the snapshot magic.
	ErrMagic = errors.New("snapshot: bad magic (not a whydb snapshot)")
	// ErrVersion: the format version is not one this build reads.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrEndianness: the endianness marker does not decode to the expected
	// value, i.e. the file was written with the opposite byte order.
	ErrEndianness = errors.New("snapshot: endianness marker mismatch")
	// ErrChecksum: the payload CRC32-C does not match the header.
	ErrChecksum = errors.New("snapshot: payload checksum mismatch")
	// ErrTruncated: the file is shorter than its header or section table
	// promises.
	ErrTruncated = errors.New("snapshot: file truncated")
	// ErrFormat: a structural invariant inside a section is violated.
	ErrFormat = errors.New("snapshot: malformed section")
)

const (
	magic         = "WHYDBSNP"
	formatVersion = 1
	// endianMark decodes to this value only when file and reader agree on
	// byte order; read big-endian it comes out as 0x0D0C0B0A.
	endianMark = 0x0A0B0C0D

	headerSize = 96
	nSections  = 14
	tableSize  = nSections * 16
)

// Section indexes in the section table.
const (
	secStrOff   = iota // []uint32, nStrings+1 heap offsets
	secStrBytes        // raw string heap
	secTypes           // []uint32, dense type id → heap ref
	secVAttrOff        // []uint32, nv+1 spans into attr records
	secEAttrOff        // []uint32, ne+1 spans into attr records
	secAttrRecs        // []attrRec, 16 B each
	secEdges           // []edgeRec, 12 B each
	secOutOff          // []int32, nv+1
	secInOff           // []int32, nv+1
	secOutAdj          // []graph.Adj, 12 B each, live edges
	secInAdj           // []graph.Adj, 12 B each, live edges
	secIndexed         // []uint32, indexed attribute key refs
	secRemovedV        // []uint32, tombstoned vertex ids, ascending
	secRemovedE        // []uint32, tombstoned edge ids, ascending
)

// attrRec is one attribute: key ref, value kind, and the value encoded by
// kind (string heap ref, IEEE-754 bits, or 0/1).
type attrRec struct {
	Key  uint32
	Kind uint32
	Val  uint64
}

// edgeRec is one edge: endpoints and the type as a heap ref (not a dense
// type id — removed edges keep a type that may no longer be in the live
// type table).
type edgeRec struct {
	From    int32
	To      int32
	TypeRef uint32
}

const (
	attrRecSize = 16
	edgeRecSize = 12
	adjSize     = 12
)
