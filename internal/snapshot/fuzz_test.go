package snapshot

import (
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// alignedCopy returns b in fresh 8-byte aligned memory, as an mmap'd file is.
func alignedCopy(b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
	copy(out, b)
	return out
}

// within fails unless every element of s lies inside img.
func within[E any](t *testing.T, img []byte, what string, s []E) {
	t.Helper()
	if len(s) == 0 {
		return
	}
	lo, hi := uintptr(unsafe.Pointer(&img[0])), uintptr(unsafe.Pointer(&img[0]))+uintptr(len(img))
	p := uintptr(unsafe.Pointer(&s[0]))
	if end := p + uintptr(len(s))*unsafe.Sizeof(s[0]); p < lo || end > hi {
		t.Fatalf("%s spans [%#x,%#x), outside the image [%#x,%#x)", what, p, end, lo, hi)
	}
}

// fuzzImage is what FuzzSnapshotLoad loads: blob in 8-byte aligned memory, as
// an mmap'd file is, with head over its header and section table and span
// written at offset at of the body behind them, the checksum fixed up —
// CRC-32C is no MAC, so a hostile file carries a valid one.
func fuzzImage(blob, head []byte, at uint32, span []byte) []byte {
	img := alignedCopy(blob)
	copy(img, head[:min(len(head), headerSize+tableSize)])
	body := img[headerSize+tableSize:]
	copy(body[int(at%uint32(len(body))):], span)
	le.PutUint32(img[offCRC:], crc32.Checksum(img[headerSize:], castagnoli))
	return img
}

// allocBound is what Load may allocate, as a multiple of the image: twice what
// a valid load of testGraph's 972-byte image allocates (6.2× the image read,
// 6.0× mapped). A valid image of 160 vertices and nothing else, offset tables
// sharing their bytes, is about the worst one that size: 10.7× read.
const allocBound = 12.5

// loadMeasured loads img and reports the bytes the load allocated.
func loadMeasured(img []byte, zeroCopy bool) (*graph.Graph, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, _, err := Load(img, zeroCopy)
	runtime.ReadMemStats(&after)
	return g, after.TotalAlloc - before.TotalAlloc, err
}

// FuzzSnapshotLoad loads whole hostile files: a valid image whose header and
// section table are the fuzzer's, and a span of its body too (fuzzImage).
// Load must never panic, must reject with exactly one sentinel, must not
// allocate more than allocBound times the image, and on the zero-copy path
// must hand out no array reaching past it. The committed corpus holds a header
// whose vertex count, times the 4 bytes of an offset, wraps to the 0-byte
// sections it names, and one naming eight vertex columns of 150 vertices over
// a 96-byte codes section (TestLoadBoundsHeaderCounts has both).
func FuzzSnapshotLoad(f *testing.F) {
	blob, err := Pack(testGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob[:headerSize+tableSize], uint32(0), []byte(nil), false)
	f.Add(blob[:headerSize+tableSize], uint32(0), []byte(nil), true)
	sentinels := []error{ErrMagic, ErrVersion, ErrEndianness, ErrChecksum, ErrTruncated, ErrFormat}
	f.Fuzz(func(t *testing.T, head []byte, at uint32, span []byte, zeroCopy bool) {
		img := fuzzImage(blob, head, at, span)
		zeroCopy = zeroCopy && hostLittleEndian()
		g, grown, err := loadMeasured(img, zeroCopy)
		if float64(grown) > allocBound*float64(len(img)) {
			t.Fatalf("Load of a %d-byte image allocated %d bytes", len(img), grown)
		}
		if err != nil {
			matches := 0
			for _, s := range sentinels {
				if errors.Is(err, s) {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("error %v matches %d sentinels, want exactly 1", err, matches)
			}
			return
		}
		if zeroCopy {
			c := g.FrozenCSR()
			within(t, img, "out-offsets", c.OutOff)
			within(t, img, "in-offsets", c.InOff)
			within(t, img, "out-adjacency", c.OutAdj)
			within(t, img, "in-adjacency", c.InAdj)
			for _, cols := range []map[string]*graph.Column{g.VertexColumns(), g.EdgeColumns()} {
				for k, c := range cols {
					within(t, img, "codes of "+k, c.Codes)
				}
			}
		}
		if _, err := Pack(g); err != nil {
			t.Fatalf("an accepted image does not pack again: %v", err)
		}
	})
}

// TestPackFingerprint pins the snapshot of each generated dataset at scale 1
// to its checksum, and pack → load → repack to the same bytes. A deliberate
// change to datagen or to the format updates the constants.
func TestPackFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		crc  uint32
	}{
		{"ldbc", datagen.LDBC(datagen.DefaultLDBC()), 0x346360ed},
		{"dbpedia", datagen.DBpedia(datagen.DefaultDBpedia()), 0xa8cb6c8b},
	} {
		blob, err := Pack(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if got := le.Uint32(blob[offCRC:]); got != tc.crc {
			t.Errorf("%s: checksum %08x, want %08x", tc.name, got, tc.crc)
		}
		loaded, _, err := Load(blob, false)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Pack(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if got := le.Uint32(again[offCRC:]); got != tc.crc || len(again) != len(blob) {
			t.Errorf("%s: repacked to %d bytes, checksum %08x; want %d, %08x", tc.name, len(again), got, len(blob), tc.crc)
		}
	}
}

// manyColumns is a K·N header: blob's, naming eight vertex columns of 150
// vertices each — 4 800 bytes of codes — over its 96-byte codes section,
// with the directory they need as the body span and both offset tables on
// one 604-byte stretch of the body.
func manyColumns(blob []byte) (head []byte, at uint32, span []byte) {
	const k, n = 8, 150
	head = slices.Clone(blob[:headerSize+tableSize])
	sec := func(i int, off, length uint64) {
		le.PutUint64(head[headerSize+16*i:], off)
		le.PutUint64(head[headerSize+16*i+8:], length)
	}
	setCount := func(i, v int) { le.PutUint64(head[offCounts+8*i:], uint64(v)) }
	secAt := func(i int) uint64 { return le.Uint64(blob[headerSize+16*i:]) }
	strOff := dec32[uint32](blob[secAt(secStrOff) : secAt(secStrOff)+4*uint64(count(blob, cntStrings)+1)])
	heap := blob[secAt(secStrBytes):]
	refs := make([]uint32, count(blob, cntStrings))
	for i := range refs {
		refs[i] = uint32(i)
	}
	slices.SortFunc(refs, func(a, b uint32) int {
		return strings.Compare(string(heap[strOff[a]:strOff[a+1]]), string(heap[strOff[b]:strOff[b+1]]))
	})
	for _, ref := range refs[:k] {
		span = le.AppendUint32(span, 0) // a vertex column
		span = le.AppendUint32(span, ref)
		span = le.AppendUint64(span, 0) // with an empty dictionary
	}
	setCount(cntVertices, n)
	setCount(cntColumns, k)
	setCount(cntDict, 0)
	sec(secColumns, secAt(secColumns), uint64(len(span)))
	sec(secDict, secAt(secDict), 0)
	sec(secOutOff, headerSize+tableSize, 4*(n+1))
	sec(secInOff, headerSize+tableSize, 4*(n+1))
	return head, uint32(secAt(secColumns) - headerSize - tableSize), span
}

// TestLoadBoundsHeaderCounts: a vertex count of 2⁶²−1 names, through
// (count+1)×4, 0-byte offset sections — the product wraps; a count of
// columns, dictionary values or codes names more than its section holds; and
// eight columns of 150 vertices want 4 800 bytes of codes from a 96-byte
// section. Load rejects each as malformed, allocating no more than it may.
func TestLoadBoundsHeaderCounts(t *testing.T) {
	blob, err := Pack(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	header := func(edit func(b []byte)) func() []byte {
		return func() []byte {
			head := slices.Clone(blob[:headerSize+tableSize])
			edit(head)
			return fuzzImage(blob, head, 0, nil)
		}
	}
	setCount := func(i int, v uint64) func() []byte {
		return header(func(b []byte) { le.PutUint64(b[offCounts+8*i:], v) })
	}
	for name, image := range map[string]func() []byte{
		"vertex count": header(func(b []byte) {
			le.PutUint64(b[offCounts+8*cntVertices:], 1<<62-1)
			for _, sec := range []int{secOutOff, secInOff} {
				le.PutUint64(b[headerSize+16*sec+8:], 0)
			}
		}),
		"column count":     setCount(cntColumns, 1<<60),
		"dictionary count": setCount(cntDict, 1<<60),
		"code count":       setCount(cntCodes, 1<<60),
		"string count":     setCount(cntStrings, 1<<63),
		"columns × vertices": func() []byte {
			head, at, span := manyColumns(blob)
			return fuzzImage(blob, head, at, span)
		},
	} {
		img := image()
		_, grown, err := loadMeasured(img, false)
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: %v, want %v", name, err, ErrFormat)
		}
		if float64(grown) > allocBound*float64(len(img)) {
			t.Errorf("%s: Load of a %d-byte image allocated %d bytes", name, len(img), grown)
		}
	}
}
