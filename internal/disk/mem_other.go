//go:build !linux || race

package disk

// MapZeroed returns n zeroed bytes from the Go heap where anonymous mappings
// are not used (see mem_linux.go).
func MapZeroed(n int) ([]byte, error) { return make([]byte, n), nil }

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
