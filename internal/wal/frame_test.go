package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// encodeFrame is the test-side reference encoder: the bytes Append puts on
// disk for one record, built the slow obvious way.
func encodeFrame(tick uint64, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, tick)
	body = append(body, payload...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// mustOpen opens dir's log; must fails the test on a non-nil error.
func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	must(t, err)
	return l
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// threeSegments writes ticks 0..29 in segments [0,10) [10,20) [20,30).
func threeSegments(t *testing.T, dir string) *Log {
	t.Helper()
	l := mustOpen(t, dir)
	for tick := uint64(0); tick < 30; tick++ {
		must(t, l.Append(tick, []byte{byte(tick)}))
		if tick%10 == 9 && tick != 29 {
			must(t, l.Rotate(tick+1))
		}
	}
	must(t, l.Flush())
	return l
}

// TestAppendWritesTheReferenceFrame pins the bytes on disk: the incremental
// CRC and the split header/payload writes must produce exactly the frame the
// staged encoder did.
func TestAppendWritesTheReferenceFrame(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	want := appendSegHeader(nil)
	for tick, p := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte{0xAB}, 70000)} {
		must(t, l.Append(uint64(tick), p))
		want = append(want, encodeFrame(uint64(tick), p)...)
	}
	must(t, l.Close())
	got, err := os.ReadFile(filepath.Join(dir, segName(0)))
	must(t, err)
	if !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, differs from the reference encoding (%d bytes)", len(got), len(want))
	}
}

// TestAppendDoesNotAllocate: the tick path stages no copy of the record.
func TestAppendDoesNotAllocate(t *testing.T) {
	l := mustOpen(t, t.TempDir())
	defer l.Close()
	payload := bytes.Repeat([]byte{7}, 48<<10)
	tick := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(tick, payload); err != nil {
			t.Fatal(err)
		}
		tick++
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.0f times per record, want 0", allocs)
	}
}

// TestRotateNamesAndNoOp: rotating to the start of a still-empty active
// segment succeeds without touching it, and a name at or below a tick
// already logged is raised past it so no record hides behind a name.
func TestRotateNamesAndNoOp(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	must(t, l.Append(0, nil))
	must(t, l.Append(1, nil))
	must(t, l.Rotate(2))
	must(t, l.Rotate(2)) // empty segment 2: nothing to seal
	if err := l.Rotate(1); err == nil {
		t.Error("rotate below the active segment's start accepted")
	}
	must(t, l.Append(2, nil))
	must(t, l.Append(3, []byte("install logged at the tick about to run")))
	must(t, l.Rotate(3)) // tick 3 is already in segment 2
	must(t, l.Append(3, nil))
	must(t, l.Flush())
	starts, err := segments(dir)
	must(t, err)
	if fmt.Sprint(starts) != "[0 2 4]" {
		t.Fatalf("segments %v, want [0 2 4]", starts)
	}
	// The invariant readers skip by: every record before a segment is below
	// its name, so from=3 must still see both tick-3 records.
	r, err := NewReader(dir, 3)
	must(t, err)
	defer r.Close()
	ticks, _ := readAll(t, r)
	n := 0
	for _, tick := range ticks {
		if tick == 3 {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("reader from 3 saw ticks %v, want both records of tick 3", ticks)
	}
}

// TestReaderSkipsSealedSegmentsBelowFrom mirrors
// TestTailSkipsSealedSegmentsBelowFrom for the batch reader.
func TestReaderSkipsSealedSegmentsBelowFrom(t *testing.T) {
	dir := t.TempDir()
	l := threeSegments(t, dir)
	defer l.Close()
	for _, tc := range []struct {
		from, first uint64
		skipped     int
	}{
		{0, 0, 0}, {9, 0, 0}, {10, 10, 1}, {25, 20, 2}, {20, 20, 2}, {1000, 20, 2},
	} {
		r, err := l.NewReader(tc.from)
		must(t, err)
		ticks, _ := readAll(t, r)
		r.Close()
		if len(ticks) == 0 || ticks[0] != tc.first || ticks[len(ticks)-1] != 29 {
			t.Errorf("from %d: read ticks %v, want %d..29", tc.from, ticks, tc.first)
		}
		if r.Skipped() != tc.skipped {
			t.Errorf("from %d: skipped %d segments, want %d", tc.from, r.Skipped(), tc.skipped)
		}
		if want := int64(len(ticks)*len(encodeFrame(0, []byte{0})) + (3-tc.skipped)*segHdrLen); r.BytesRead() != want {
			t.Errorf("from %d: read %d bytes, want %d", tc.from, r.BytesRead(), want)
		}
	}
	// The caller filters the records of the first kept segment below from.
	got := collect(t, l, 25)
	if len(got) != 5 {
		t.Errorf("collect(25) returned %d records, want 5", len(got))
	}
}

// TestReaderCorruptionKeptVersusSkipped: a corrupt sealed segment is a
// sticky error when the read needs it and invisible when it does not: a
// skipped segment is never opened.
func TestReaderCorruptionKeptVersusSkipped(t *testing.T) {
	dir := t.TempDir()
	l := threeSegments(t, dir)
	defer l.Close()
	for _, start := range []uint64{0, 10} {
		path := filepath.Join(dir, segName(start))
		data, err := os.ReadFile(path)
		must(t, err)
		data[len(data)/2] ^= 0xff
		must(t, os.WriteFile(path, data, 0o644))
	}

	r, err := NewReader(dir, 20)
	must(t, err)
	ticks, _ := readAll(t, r)
	r.Close()
	if len(ticks) != 10 || ticks[0] != 20 {
		t.Fatalf("from 20 read %v, want 20..29", ticks)
	}

	r, err = NewReader(dir, 15)
	must(t, err)
	defer r.Close()
	var first error
	for {
		_, _, err := r.Next()
		if err == io.EOF {
			t.Fatal("corruption in a kept sealed segment read as a clean end")
		}
		if err != nil {
			first = err
			break
		}
	}
	if _, _, err := r.Next(); err != first {
		t.Fatalf("error not sticky: %v then %v", first, err)
	}
}

// TestReaderChunkBoundaries: frames whose sizes divide no page, and a record
// of several MB, come back intact from one segment's mapping, and payloads
// handed out earlier stay valid after the reader has moved on.
func TestReaderChunkBoundaries(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	var want [][]byte
	add := func(n int) {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(len(want)*31 + i)
		}
		must(t, l.Append(uint64(len(want)), p))
		want = append(want, p)
	}
	for i := 0; i < 90; i++ {
		add(100_003) // 9 MB of frames whose size divides no page
	}
	add(4<<20 + 12345)
	add(1)
	must(t, l.Rotate(uint64(len(want)))) // sealed: an unread byte would be an error
	r, err := l.NewReader(0)
	must(t, err)
	defer r.Close()
	var got [][]byte
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		must(t, err)
		if tick != uint64(len(got)) {
			t.Fatalf("record %d has tick %d", len(got), tick)
		}
		got = append(got, payload) // retained, not copied
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d (%d bytes) differs after the reader moved on", i, len(want[i]))
		}
	}
}

// TestTornTailGoneBeforeFirstAppend: Open defers finding the end of the
// final segment, but the torn bytes are cut off before anything is appended
// — by the first Append, by a bare Close, and at once when a reader of the
// log walked the segment to its end.
func TestTornTailGoneBeforeFirstAppend(t *testing.T) {
	torn := encodeFrame(5, []byte("never acknowledged"))
	torn = torn[:len(torn)-3]
	for _, tc := range []struct {
		name string
		// cutByRead: a reader walks the log first, and the file must be back
		// to its valid length as soon as it is done.
		cutByRead bool
		appends   bool // append a record before Close
	}{
		{"append", false, true},
		{"close", false, false},
		{"read then append", true, true},
		{"read then close", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir)
			for tick := uint64(0); tick < 5; tick++ {
				must(t, l.Append(tick, []byte("payload")))
			}
			must(t, l.Close())
			path := filepath.Join(dir, segName(0))
			valid, err := os.ReadFile(path)
			must(t, err)
			must(t, os.WriteFile(path, append(append([]byte(nil), valid...), torn...), 0o644))

			l = mustOpen(t, dir)
			if tc.cutByRead {
				r, err := l.NewReader(0)
				must(t, err)
				if ticks, _ := readAll(t, r); len(ticks) != 5 {
					t.Fatalf("reader saw %d records, want 5", len(ticks))
				}
				r.Close()
				if data, _ := os.ReadFile(path); !bytes.Equal(data, valid) {
					t.Fatalf("file holds %d bytes after the read, want the %d valid ones", len(data), len(valid))
				}
				if err := l.Append(3, nil); err == nil {
					t.Fatal("log positioned by a reader lost its tick high-water mark")
				}
			}
			want := valid
			if tc.appends {
				must(t, l.Append(5, []byte("e")))
				want = append(append([]byte(nil), valid...), encodeFrame(5, []byte("e"))...)
			}
			must(t, l.Close())
			data, err := os.ReadFile(path)
			must(t, err)
			if !bytes.Equal(data, want) {
				t.Fatalf("segment holds %d bytes, want %d: torn tail not cut before the append", len(data), len(want))
			}
		})
	}
}

// FuzzParseFrame: on arbitrary bytes the frame parser never panics, never
// claims more than it was given, asks only for lengths the format allows,
// and a frame it returns re-encodes to exactly the bytes it was parsed from.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFrame(0, nil))
	f.Add(encodeFrame(1<<63, []byte("payload")))
	f.Add(encodeFrame(7, []byte("torn"))[:15])
	f.Add(append(encodeFrame(3, []byte("two")), encodeFrame(4, []byte("frames"))...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		tick, payload, size, need := parseFrame(b)
		if size == 0 {
			if payload != nil {
				t.Fatalf("payload without a frame")
			}
			if need != 0 && (need <= len(b) || need > frameHdrLen+maxRecordSize) {
				t.Fatalf("need %d for %d bytes given", need, len(b))
			}
			return
		}
		if size > len(b) || need != 0 {
			t.Fatalf("size %d need %d for %d bytes given", size, need, len(b))
		}
		if enc := encodeFrame(tick, payload); !bytes.Equal(enc, b[:size]) {
			t.Fatalf("frame does not re-encode to its bytes")
		}
		if len(payload) > 0 && &payload[0] != &b[frameHdrLen+8] {
			t.Fatalf("payload is a copy, not a slice of the input")
		}
	})
}
