//go:build !linux || race

package disk

import (
	"io"
	"os"
)

// MapZeroed returns n zeroed bytes from the Go heap where anonymous mappings
// are not used (see mem_linux.go).
func MapZeroed(n int) ([]byte, error) { return make([]byte, n), nil }

// MapFile reads n bytes of f from off into the heap where file mappings are
// not used (see mem_linux.go); a file shorter than off+n is an error. Heap
// bytes do not follow the file, so nothing is reserved ahead: the slice's
// capacity is n.
func MapFile(f *os.File, off int64, n, _ int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := f.ReadAt(b, off); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// Unmap leaves the memory to the garbage collector, but poisons it first: a
// reader that outlives the release reads 0xA5 bytes (and, under the race
// detector, races with this write) where Linux would fault.
func Unmap(b []byte) error {
	b = b[:cap(b)]
	if len(b) == 0 {
		return nil
	}
	// Doubling copies: a memmove the race detector sees as one range write
	// each, where a byte loop costs it tens of milliseconds per chunk.
	b[0] = 0xA5
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
	return nil
}
