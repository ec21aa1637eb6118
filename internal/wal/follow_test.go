package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Tests of a Reader following a log that is still being written: its EOF
// means "caught up", and a later Next returns what was appended since.

// nextRecord returns the next record. Whenever the reader is caught up it
// waits for flushed, which the writer signals after every Flush, and gives
// up when the deadline passes. A nil flushed means no further Flush is
// coming: the record must already be visible.
func nextRecord(t *testing.T, r *Reader, flushed <-chan struct{}, deadline time.Duration) (uint64, string) {
	t.Helper()
	timeout := time.After(deadline)
	for {
		tick, payload, err := r.Next()
		if err == nil {
			return tick, string(payload)
		}
		if err != io.EOF {
			t.Fatal(err)
		}
		select {
		case <-flushed:
		case <-timeout:
			t.Fatal("reader saw no record before deadline")
		}
	}
}

// caughtUp fails unless the reader has nothing more to return.
func caughtUp(t *testing.T, r *Reader) {
	t.Helper()
	if tick, _, err := r.Next(); err != io.EOF {
		t.Fatalf("caught-up reader returned tick %d, err %v; want io.EOF", tick, err)
	}
}

func TestTailFollowConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const records = 400
	done := make(chan error, 1)
	// Holds at most one pending signal: a Flush while one is pending has
	// nothing more to announce to a reader that has yet to wake.
	flushed := make(chan struct{}, 1)
	go func() {
		for tick := uint64(0); tick < records; tick++ {
			if err := l.Append(tick, []byte(fmt.Sprintf("payload-%d", tick))); err != nil {
				done <- err
				return
			}
			// Flush is the visibility barrier (the engine flushes at every
			// tick while a log follower is subscribed).
			if err := l.Flush(); err != nil {
				done <- err
				return
			}
			select {
			case flushed <- struct{}{}:
			default:
			}
			// Rotate occasionally so the reader follows live segment churn.
			if tick%97 == 96 {
				if err := l.Rotate(tick + 1); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()

	r, err := NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for want := uint64(0); want < records; want++ {
		tick, payload := nextRecord(t, r, flushed, 10*time.Second)
		if tick != want {
			t.Fatalf("reader returned tick %d, want %d", tick, want)
		}
		if payload != fmt.Sprintf("payload-%d", want) {
			t.Fatalf("tick %d payload %q", tick, payload)
		}
		r.Release(r.Records())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	caughtUp(t, r)
}

// TestTailTornFrameInvisible writes a segment's header and first frame in
// growing prefixes directly to the segment file: the reader must return
// nothing until the last byte lands — a header still short reads as an
// empty segment — then the whole record, never a torn read.
func TestTailTornFrameInvisible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(0))

	body := make([]byte, 8+5)
	binary.LittleEndian.PutUint64(body, 7)
	copy(body[8:], "hello")
	frame := binary.LittleEndian.AppendUint32(appendSegHeader(nil), uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	frame = append(frame, body...)

	r, err := NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	caughtUp(t, r) // no segment yet

	for cut := 1; cut < len(frame); cut += 6 {
		if err := os.WriteFile(path, frame[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		caughtUp(t, r)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	tick, payload, err := r.Next()
	if err != nil || tick != 7 || string(payload) != "hello" {
		t.Fatalf("complete frame: tick=%d payload=%q err=%v", tick, payload, err)
	}
}

func TestTailFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r, err := NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(0, []byte("a")))
	must(l.Flush())
	if tick, p := nextRecord(t, r, nil, time.Second); tick != 0 || p != "a" {
		t.Fatalf("got %d %q", tick, p)
	}
	// Catch up fully, then rotate: the reader is parked at the live tail of
	// the now-sealed segment and must hop to the successor.
	caughtUp(t, r)
	must(l.Rotate(1))
	must(l.Append(1, []byte("b")))
	must(l.Flush())
	if tick, p := nextRecord(t, r, nil, time.Second); tick != 1 || p != "b" {
		t.Fatalf("after rotation got %d %q", tick, p)
	}
}

// TestReaderResumesAfterEOF: the end of the log is not final. Records
// appended after Next reported io.EOF — into the same segment and, after a
// rotation, into newer ones — are returned in order by later calls.
func TestReaderResumesAfterEOF(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for tick := uint64(0); tick < 3; tick++ {
		must(l.Append(tick, []byte(fmt.Sprintf("p%d", tick))))
	}
	must(l.Flush())
	r, err := NewReader(dir, 0)
	must(err)
	defer r.Close()
	if ticks, _ := readAll(t, r); len(ticks) != 3 {
		t.Fatalf("first read saw ticks %v, want 0..2", ticks)
	}

	for tick := uint64(3); tick < 9; tick++ {
		must(l.Append(tick, []byte(fmt.Sprintf("p%d", tick))))
		if tick%2 == 0 {
			must(l.Rotate(tick + 1))
		}
	}
	must(l.Flush())
	ticks, payloads := readAll(t, r)
	for i, tick := range ticks {
		if want := uint64(3 + i); tick != want || payloads[i] != fmt.Sprintf("p%d", want) {
			t.Fatalf("record %d after EOF: tick %d payload %q, want tick %d", i, tick, payloads[i], want)
		}
	}
	if len(ticks) != 6 {
		t.Fatalf("after EOF the reader returned ticks %v, want 3..8", ticks)
	}
}

// TestTailSkipsSealedSegmentsBelowFrom: the from hint skips whole sealed
// segments (their records all precede the successor's start tick) of a log
// that is still being written, and the reader follows it from there.
func TestTailSkipsSealedSegmentsBelowFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for tick := uint64(0); tick < 30; tick++ {
		must(l.Append(tick, []byte{byte(tick)}))
		if tick%10 == 9 {
			must(l.Rotate(tick + 1))
		}
	}
	must(l.Flush())

	// from=25: segments [0,10) and [10,20) are skippable, 20+ is not.
	r, err := NewReader(dir, 25)
	must(err)
	defer r.Close()
	if r.Skipped() != 2 {
		t.Fatalf("reader skipped %d segments, want 2", r.Skipped())
	}
	ticks, _ := readAll(t, r)
	if len(ticks) == 0 || ticks[0] != 20 || ticks[len(ticks)-1] != 29 {
		t.Fatalf("reader returned %v, want ticks 20..29", ticks)
	}
	must(l.Append(30, []byte{30}))
	must(l.Flush())
	if tick, _ := nextRecord(t, r, nil, time.Second); tick != 30 {
		t.Fatalf("reader resumed at tick %d, want 30", tick)
	}
}

// TestTailSealedCorruptionIsSticky: garbage in a sealed segment is an error
// (durably acknowledged records must never be skipped), and the error
// repeats — whether the segment was sealed before the reader opened it, or
// was the live end when the reader caught up and is sealed afterwards.
func TestTailSealedCorruptionIsSticky(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sticky := func(t *testing.T, r *Reader) {
		t.Helper()
		_, _, err := r.Next()
		if err == nil || err == io.EOF {
			t.Fatalf("sealed-segment corruption not reported: %v", err)
		}
		if _, _, err2 := r.Next(); err2 != err {
			t.Fatalf("error not sticky: %v then %v", err, err2)
		}
	}

	t.Run("sealed_before_open", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir)
		must(err)
		defer l.Close()
		must(l.Append(0, []byte("aaaa")))
		must(l.Append(1, []byte("bbbb")))
		must(l.Rotate(2))
		must(l.Append(2, []byte("cccc")))
		must(l.Flush())

		// Flip a byte inside the second record of the sealed first segment.
		path := filepath.Join(dir, segName(0))
		data, err := os.ReadFile(path)
		must(err)
		data[len(data)-2] ^= 0xff
		must(os.WriteFile(path, data, 0o644))

		r, err := NewReader(dir, 0)
		must(err)
		defer r.Close()
		if tick, _, err := r.Next(); err != nil || tick != 0 {
			t.Fatalf("first record: tick=%d err=%v", tick, err)
		}
		sticky(t, r)
	})

	t.Run("sealed_after_eof", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir)
		must(err)
		defer l.Close()
		must(l.Append(0, []byte("aaaa")))
		must(l.Flush())
		// Bytes that do not parse after the last frame of the live segment.
		f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0)
		must(err)
		_, err = f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
		must(err)
		must(f.Close())

		r, err := NewReader(dir, 0)
		must(err)
		defer r.Close()
		if ticks, _ := readAll(t, r); len(ticks) != 1 {
			t.Fatalf("live segment: ticks %v, want [0]", ticks)
		}
		must(l.Rotate(1))
		sticky(t, r)
	})
}
