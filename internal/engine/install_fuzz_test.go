package engine

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
)

// FuzzDecodeInstall: the install-record decoder never panics, accepts only a
// range whose byte count matches its payload — (hi-lo)×objSize equals
// len(data) with no overflow — and an accepted payload re-encodes to itself.
// objSize is fuzzed as objSizeMinus1 so every value is a valid geometry.
func FuzzDecodeInstall(f *testing.F) {
	rec := func(lo, hi uint64, data []byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, lo)
		b = binary.LittleEndian.AppendUint64(b, hi)
		return append(b, data...)
	}
	f.Add(rec(3, 5, make([]byte, 2*512)), uint16(511))
	f.Add(rec(0, 0, nil), uint16(63))
	f.Add(rec(0, 1<<55, nil), uint16(511))       // the product wraps to 0
	f.Add(rec(1<<63, 1<<63+1, nil), uint16(0))   // lo negative as an int
	f.Add(rec(7, 6, nil), uint16(3))             // hi below lo
	f.Add(rec(0, 2, make([]byte, 7)), uint16(3)) // data not a whole object count
	f.Add(rec(0, 1, nil)[:11], uint16(3))        // truncated header
	f.Fuzz(func(t *testing.T, payload []byte, objSizeMinus1 uint16) {
		objSize := int(objSizeMinus1) + 1
		lo, hi, data, err := decodeInstall(payload, objSize)
		if err != nil {
			return
		}
		if lo < 0 || hi < lo {
			t.Fatalf("accepted range [%d,%d)", lo, hi)
		}
		if over, n := bits.Mul64(uint64(hi-lo), uint64(objSize)); over != 0 || n != uint64(len(data)) {
			t.Fatalf("accepted range [%d,%d) of %d-byte objects for %d data bytes", lo, hi, objSize, len(data))
		}
		if got := appendInstallRecord(nil, lo, hi, data); !bytes.Equal(got[1:], payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got[1:], payload)
		}
	})
}
