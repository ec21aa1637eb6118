package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceDecodeUpdates is DecodeUpdates as it stood before the unrolled
// fast path, kept verbatim: the differential oracle for the update codec.
func referenceDecodeUpdates(dst []Update, payload []byte) ([]Update, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("wal: bad update count")
	}
	payload = payload[n:]
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Varint(payload)
		if n <= 0 {
			return dst, fmt.Errorf("wal: bad cell delta at update %d", i)
		}
		payload = payload[n:]
		cell := prev + d
		if cell < 0 || cell > 1<<32-1 {
			return dst, fmt.Errorf("wal: cell %d out of range at update %d", cell, i)
		}
		prev = cell
		if len(payload) < 4 {
			return dst, fmt.Errorf("wal: truncated value at update %d", i)
		}
		dst = append(dst, Update{
			Cell:  uint32(cell),
			Value: binary.LittleEndian.Uint32(payload),
		})
		payload = payload[4:]
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("wal: %d trailing bytes after batch", len(payload))
	}
	return dst, nil
}

// referenceEncodeUpdates is EncodeUpdates as it stood before the branch-free
// varint store, kept verbatim: the encoder's differential oracle.
func referenceEncodeUpdates(buf []byte, updates []Update) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	prev := int64(0)
	var v [4]byte
	for _, u := range updates {
		buf = binary.AppendVarint(buf, int64(u.Cell)-prev)
		prev = int64(u.Cell)
		binary.LittleEndian.PutUint32(v[:], u.Value)
		buf = append(buf, v[:]...)
	}
	return buf
}

// FuzzEncodeUpdates: for any batch and any prefix already in the buffer, the
// branch-free encoder writes the reference loop's bytes after the untouched
// prefix, and DecodeUpdates reads the batch back. raw is the batch, eight
// bytes an update (cell, value, little-endian).
func FuzzEncodeUpdates(f *testing.F) {
	raw := func(us ...Update) []byte {
		var b []byte
		for _, u := range us {
			b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, u.Cell), u.Value)
		}
		return b
	}
	f.Add(raw(), []byte{})                                                                                // empty batch
	f.Add(raw(Update{Cell: 1, Value: 2}, Update{Cell: 60, Value: 3}), []byte{})                           // 1-byte deltas
	f.Add(raw(Update{Cell: 64, Value: 1}, Update{Cell: 8255, Value: 2}), []byte{})                        // 2-byte deltas at both ends of the width
	f.Add(raw(Update{Cell: 1 << 19, Value: 7}, Update{Cell: 9, Value: 8}), []byte{})                      // 3-byte deltas, one negative
	f.Add(raw(Update{Cell: 9_999_999, Value: 1}, Update{Cell: 12, Value: 2}), []byte{})                   // 4-byte deltas
	f.Add(raw(Update{Cell: 1 << 31, Value: 1}, Update{Cell: 5, Value: 2}), []byte{})                      // 5-byte deltas
	f.Add(raw(Update{}, Update{Cell: 1<<32 - 1, Value: 3}, Update{}, Update{Cell: 1<<32 - 1}), []byte{})  // cell 0 and 2^32-1 adjacent: the widest deltas of both signs
	f.Add(raw(Update{Cell: 70_000, Value: 0xdeadbeef}), []byte{0, 0xff, 0x80, 0x00, 0x7f})                // non-empty buf prefix
	f.Add(raw(Update{Cell: 5, Value: 1}, Update{Cell: 5, Value: 2}, Update{Cell: 5, Value: 3}), []byte{}) // zero deltas
	f.Fuzz(func(t *testing.T, raw, prefix []byte) {
		batch := make([]Update, len(raw)/8)
		for i := range batch {
			batch[i] = Update{Cell: binary.LittleEndian.Uint32(raw[8*i:]), Value: binary.LittleEndian.Uint32(raw[8*i+4:])}
		}
		want := referenceEncodeUpdates(bytes.Clone(prefix), batch)
		got := EncodeUpdates(bytes.Clone(prefix), batch)
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeUpdates differs from the reference loop:\n got %x\nwant %x", got, want)
		}
		back, err := DecodeUpdates(nil, got[len(prefix):])
		if err != nil || len(back) != len(batch) || (len(batch) > 0 && !reflect.DeepEqual(back, batch)) {
			t.Fatalf("encoded batch does not decode to itself: %v", err)
		}
	})
}

// checkAgainstReference runs the current decoder on payload and compares it
// with the reference loop.
func checkAgainstReference(t *testing.T, payload []byte) {
	t.Helper()
	want, wantErr := referenceDecodeUpdates(nil, payload)
	got, err := DecodeUpdates(nil, payload)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeUpdates err %v, reference err %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("DecodeUpdates differs from the reference:\n got %v\nwant %v", got, want)
	}
	// A canonical payload is one EncodeUpdates could have written: it must
	// come back out of the encoder byte for byte.
	if enc := EncodeUpdates(nil, got); len(enc) == len(payload) && !bytes.Equal(enc, payload) {
		t.Fatalf("accepted payload of canonical length re-encodes to different bytes")
	}
	if again, err := DecodeUpdates(nil, EncodeUpdates(nil, got)); err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("re-encoded batch does not decode to itself: %v", err)
	}
}

// FuzzDecodeUpdates: on arbitrary bytes the unrolled decoder takes the
// reference loop's accept/reject decision, produces its updates, never
// panics, and an accepted batch re-encodes to something that decodes to
// itself — to the same bytes when the input was canonical.
func FuzzDecodeUpdates(f *testing.F) {
	enc := func(us ...Update) []byte { return EncodeUpdates(nil, us) }
	f.Add(enc())
	f.Add(enc(Update{Cell: 1, Value: 2}, Update{Cell: 60, Value: 3}))                                         // 1-byte deltas
	f.Add(enc(Update{Cell: 1 << 19, Value: 7}, Update{Cell: 9, Value: 8}))                                    // 3-byte deltas, one negative
	f.Add(enc(Update{Cell: 9_999_999, Value: 1}, Update{Cell: 12, Value: 2}))                                 // 4-byte deltas
	f.Add(enc(Update{Cell: 1<<32 - 1, Value: 1}, Update{Cell: 0, Value: 2}, Update{Cell: 1 << 31, Value: 3})) // 5-byte deltas
	f.Add(append(enc(Update{Cell: 3, Value: 4}), make([]byte, 12)...))                                        // trailing bytes
	f.Add([]byte{1, 0x86, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 1, 2, 3, 4})                                    // over-long varint for cell 3
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 2, 3, 4})                  // 10-byte delta, out of range
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 2, 1, 2, 3, 4})                                                // count larger than the payload
	f.Add(enc(Update{Cell: 70_000, Value: 0xdeadbeef})[:5])                                                   // truncated value
	f.Add([]byte{1, 0x80})                                                                                    // truncated delta
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkAgainstReference(t, payload)
	})
}

// TestDecodeUpdatesRandomBatches drives the differential over batches shaped
// like real ticks (every delta width, both signs), and over every truncation
// of one batch.
func TestDecodeUpdatesRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, span := range []uint32{50, 1 << 13, 1 << 20, 1 << 27, 1<<32 - 1} {
		batch := make([]Update, 300)
		for i := range batch {
			batch[i] = Update{Cell: uint32(rng.Int63n(int64(span) + 1)), Value: rng.Uint32()}
		}
		payload := EncodeUpdates(nil, batch)
		if !bytes.Equal(payload, referenceEncodeUpdates(nil, batch)) {
			t.Fatalf("span %d: EncodeUpdates differs from the reference loop", span)
		}
		checkAgainstReference(t, payload)
		if span == 1<<20 {
			for cut := 0; cut < len(payload); cut += 7 {
				checkAgainstReference(t, payload[:cut])
			}
		}
	}
}

// TestDecodeUpdatesCountNeverSizesAnAllocation: a count field above what
// the payload can hold is refused before anything is grown for it.
func TestDecodeUpdatesCountNeverSizesAnAllocation(t *testing.T) {
	for _, count := range []uint64{13, 1 << 40} {
		payload := append(binary.AppendUvarint(nil, count), make([]byte, 64)...) // room for 12
		got, err := DecodeUpdates(nil, payload)
		if err == nil || cap(got) != 0 {
			t.Errorf("count %d over 64 bytes: err %v, %d updates of capacity grown", count, err, cap(got))
		}
	}
}

// benchBatches is 64 distinct tick records at the benchmark's shape — 6,400
// updates each, either spread over a 10 M-cell table like hotspot (3–4-byte
// deltas) or walking forward through neighbouring cells (1-byte deltas).
// Distinct, because a branch predictor learns one batch decoded in a loop
// and replay never sees the same record twice.
func benchBatches(clustered bool) [][]byte {
	rng := rand.New(rand.NewSource(1))
	batches := make([][]byte, 64)
	upds := make([]Update, 6400)
	for b := range batches {
		cell := uint32(5_000_000)
		for i := range upds {
			if clustered {
				cell += uint32(rng.Intn(60))
			} else {
				cell = uint32(rng.Intn(10_000_000))
			}
			upds[i] = Update{Cell: cell, Value: rng.Uint32()}
		}
		batches[b] = EncodeUpdates(nil, upds)
	}
	return batches
}

var benchShapes = []struct {
	name      string
	clustered bool
}{{"hotspot", false}, {"clustered", true}}

func BenchmarkEncodeUpdates(b *testing.B) {
	for _, c := range benchShapes {
		b.Run(c.name, func(b *testing.B) {
			var batches [][]Update
			for _, payload := range benchBatches(c.clustered) {
				upds, err := DecodeUpdates(nil, payload)
				if err != nil {
					b.Fatal(err)
				}
				batches = append(batches, upds)
			}
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = EncodeUpdates(buf[:0], batches[i%len(batches)])
			}
			b.SetBytes(int64(len(buf)))
			b.ReportMetric(float64(b.N)*6400/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

func BenchmarkDecodeUpdates(b *testing.B) {
	for _, c := range benchShapes {
		b.Run(c.name, func(b *testing.B) {
			batches := benchBatches(c.clustered)
			var dst []Update
			b.SetBytes(int64(len(batches[0])))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = DecodeUpdates(dst[:0], batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*6400/b.Elapsed().Seconds(), "updates/s")
		})
	}
}
