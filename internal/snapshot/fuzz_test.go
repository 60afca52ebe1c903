package snapshot

import (
	"errors"
	"hash/crc32"
	"runtime"
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

// FuzzSnapshotLoad loads a valid image whose header and section table — the
// first headerSize+tableSize bytes — are the fuzzer's, with the checksum fixed
// up: CRC-32C is no MAC, so a hostile file carries a valid one. Load must
// never panic, must reject with exactly one sentinel, must not allocate more
// than a small multiple of the image, and on the zero-copy path must hand out
// no array reaching past it. The committed corpus holds a header whose vertex
// count, times the 4 bytes of an offset, wraps to the 0-byte sections it names.
func FuzzSnapshotLoad(f *testing.F) {
	blob, err := Pack(testGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob[:headerSize+tableSize], false)
	f.Add(blob[:headerSize+tableSize], true)
	sentinels := []error{ErrMagic, ErrVersion, ErrEndianness, ErrChecksum, ErrTruncated, ErrFormat}
	f.Fuzz(func(t *testing.T, head []byte, zeroCopy bool) {
		img := alignedCopy(blob)
		copy(img, head[:min(len(head), headerSize+tableSize)])
		le.PutUint32(img[88:], crc32.Checksum(img[headerSize:], castagnoli))
		zeroCopy = zeroCopy && hostLittleEndian()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, _, err := Load(img, zeroCopy)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64*uint64(len(img)) {
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
		}
		if _, err := Pack(g); err != nil {
			t.Fatalf("an accepted image does not pack again: %v", err)
		}
	})
}

// TestPackFingerprint pins the snapshot of each generated dataset at scale 1
// to the checksum of the bytes the packer wrote before the columns became the
// graph's only attribute store: decoding the columns back into attribute
// records loses nothing. A deliberate change to datagen or to the format
// updates the constants.
func TestPackFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		crc  uint32
	}{
		{"ldbc", datagen.LDBC(datagen.DefaultLDBC()), 0x8b089db1},
		{"dbpedia", datagen.DBpedia(datagen.DefaultDBpedia()), 0x1b687ebf},
	} {
		blob, err := Pack(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if got := le.Uint32(blob[88:]); got != tc.crc {
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
		if got := le.Uint32(again[88:]); got != tc.crc || len(again) != len(blob) {
			t.Errorf("%s: repacked to %d bytes, checksum %08x; want %d, %08x", tc.name, len(again), got, len(blob), tc.crc)
		}
	}
}

// TestLoadBoundsHeaderCounts: a vertex count of 2⁶²−1 names, through
// (count+1)×4, 0-byte offset sections — the product wraps. Load rejects it
// as malformed instead of allocating the count.
func TestLoadBoundsHeaderCounts(t *testing.T) {
	blob, err := Pack(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(b []byte){
		"vertex count": func(b []byte) {
			le.PutUint64(b[24:], 1<<62-1)
			for _, sec := range []int{secVAttrOff, secOutOff, secInOff} {
				le.PutUint64(b[headerSize+16*sec+8:], 0)
			}
		},
		"attribute record count": func(b []byte) { le.PutUint64(b[48:], 1<<60) },
		"string count":           func(b []byte) { le.PutUint64(b[40:], 1<<63) },
	} {
		img := append([]byte(nil), blob...)
		edit(img)
		le.PutUint32(img[88:], crc32.Checksum(img[headerSize:], castagnoli))
		if _, _, err := Load(img, false); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: %v, want %v", name, err, ErrFormat)
		}
	}
}
