package snapshot

import (
	"unsafe"

	"repro/internal/graph"
)

// Zero-copy reinterpretation of fixed-width sections. Only valid on a
// little-endian host over 8-aligned section bytes (the writer aligns every
// section); callers gate on hostLittleEndian().

// Compile-time layout assert: the on-disk record width must equal the
// in-memory struct size, or reinterpretation would shear.
var _ [adjSize]byte = [unsafe.Sizeof(graph.Adj{})]byte{}

func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// view reinterprets b as a slice of T in place.
func view[T int32 | uint32 | graph.Adj](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(z)))
}
