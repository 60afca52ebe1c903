// Package snapshot defines the persistent on-disk format for a frozen
// property graph: a versioned, checksummed, mmap-friendly binary image of
// the dense edge table, the packed CSR adjacency, the edge-type table, the
// attribute columns and the tombstone sets.
//
// Layout (all integers little-endian):
//
//	header (104 B):  magic "WHYDBSNP" · version · endian marker · section
//	                 count · CRC32-C of everything after the header · element
//	                 counts (vertices, edges, strings, columns, dictionary
//	                 values, codes, types, indexed keys, removed vertices/edges)
//	section table:   nSections × {offset uint64, length uint64}, offsets
//	                 8-byte aligned from the start of the file
//	sections:        string heap (offsets + bytes), type-name refs, column
//	                 directory, codes, dictionary, fixed 12 B edge records, CSR
//	                 offset tables (int32), CSR half-edge arrays (12 B Adj
//	                 records), indexed-key refs, removed-vertex/edge id lists
//
// The three column sections store the graph's attribute columns
// (graph.Column) as they are in memory. The directory has one 16 B record
// per column — vertex or edge, key ref, start and length of its dictionary —
// vertex columns first, then edge columns, each in ascending key order. The
// codes section holds every column's Codes back to back in directory order,
// one uint32 per vertex or edge. The dictionary section holds every column's
// Vals[1:] back to back, one 16 B record each: the kind, then the value's
// bits — a string heap ref, the IEEE-754 bits (-0 and NaN payloads kept), or
// 0/1. Load installs the columns field for field, stale dictionary values
// included, so a loaded column decodes exactly what the packed one did.
//
// Every variable-size value lives in one deduplicated string heap; records
// reference it by index. Fixed-width sections are 8-aligned so a loader on a
// little-endian host can reinterpret them in place over an mmap'd file
// (zero-copy): the CSR arrays and the codes, which are most of the image. A
// portable decode path copies through encoding/binary instead.
//
// The writer walks the graph in one deterministic order (type table, indexed
// keys, columns in directory order with their dictionaries, edges by id),
// interning heap strings on first encounter, so pack → load → pack
// reproduces the file byte for byte. Version 1 files, which stored one
// attribute record per element instead of the columns, are refused with
// ErrVersion; `whydb pack` writes them again.
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
	formatVersion = 2
	// endianMark decodes to this value only when file and reader agree on
	// byte order; read big-endian it comes out as 0x0D0C0B0A.
	endianMark = 0x0A0B0C0D

	// Header field offsets; the counts are nCounts uint64s from offCounts.
	offVersion  = 8
	offEndian   = 12
	offSections = 16
	offCRC      = 20
	offCounts   = 24

	headerSize = offCounts + 8*nCounts
	nSections  = 14
	tableSize  = nSections * 16
)

// Header counts, in header order.
const (
	cntVertices = iota
	cntEdges
	cntStrings
	cntColumns // column directory records
	cntDict    // dictionary records, all columns
	cntCodes   // codes, all columns
	cntTypes
	cntIndexed
	cntRemovedV
	cntRemovedE
	nCounts
)

// Section indexes in the section table.
const (
	secStrOff   = iota // []uint32, nStrings+1 heap offsets
	secStrBytes        // raw string heap
	secTypes           // []uint32, dense type id → heap ref
	secColumns         // column directory, 16 B records
	secCodes           // []uint32, every column's codes
	secDict            // dictionary, 16 B value records
	secEdges           // edge records, 12 B each
	secOutOff          // []int32, nv+1
	secInOff           // []int32, nv+1
	secOutAdj          // []graph.Adj, 12 B each, live edges
	secInAdj           // []graph.Adj, 12 B each, live edges
	secIndexed         // []uint32, indexed attribute key refs
	secRemovedV        // []uint32, tombstoned vertex ids, ascending
	secRemovedE        // []uint32, tombstoned edge ids, ascending
)

// Fixed record widths. A directory record is {edge column uint32 (0 or 1),
// key ref uint32, dictionary start uint32, dictionary length uint32}; its
// codes follow those of the records before it. A dictionary record is
// {kind uint64, value bits uint64}. An edge record is {from int32, to int32,
// type ref uint32} — the type as a heap ref, not a dense type id, because a
// removed edge keeps a type that may no longer be in the live type table.
const (
	colRecSize  = 16
	dictRecSize = 16
	edgeRecSize = 12
	adjSize     = 12
)
