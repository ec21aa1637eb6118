package peerram

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// Replicas live in RAM for the whole run, so they are stored compressed:
// the RAM-vs-recovery-time trade the paper's disk numbers frame is only
// worth taking if a replica costs a fraction of the slab it protects.
// flate at BestSpeed keeps the tick-path overhead to a single pass over
// bytes that are mostly cold (checkpoint images of sparse worlds compress
// 50–100×); decompression happens once, on the recovery path, where it is
// orders of magnitude faster than the throttled disk read it replaces.

// deflate appends the flate-compressed form of src to dst[:0]'s backing
// buffer and returns it.
func deflate(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("peerram: %w", err)
	}
	if _, err := zw.Write(src); err != nil {
		return nil, fmt.Errorf("peerram: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("peerram: compress: %w", err)
	}
	return buf.Bytes(), nil
}

// maxInflated is the most a DEFLATE stream of n bytes can expand to: a
// length/distance pair costs at least two bits and yields at most 258 bytes,
// 1032 bytes out per byte in.
func maxInflated(n int) uint64 { return 1032 * uint64(n) }

// inflate decompresses comp, which must inflate to exactly rawLen bytes.
// rawLen sizes the output buffer, so one comp cannot reach is ErrRawLen
// before anything is allocated.
func inflate(comp []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || uint64(rawLen) > maxInflated(len(comp)) {
		return nil, fmt.Errorf("%w: %d bytes from a %d-byte stream", ErrRawLen, rawLen, len(comp))
	}
	zr := flate.NewReader(bytes.NewReader(comp))
	defer zr.Close() //nolint:errcheck // read-only
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("peerram: decompress: %w", err)
	}
	// A trailing byte means the stored rawLen lied: corrupt replica.
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("peerram: decompress: replica longer than declared %d bytes", rawLen)
	}
	return raw, nil
}
