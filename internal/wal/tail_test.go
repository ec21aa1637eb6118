package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tailDrain pulls every immediately-available record off a TailReader.
func tailDrain(t *testing.T, tr *TailReader) (ticks []uint64, payloads []string) {
	t.Helper()
	for {
		tick, payload, ok, err := tr.TryNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ticks, payloads
		}
		ticks = append(ticks, tick)
		payloads = append(payloads, string(payload))
	}
}

// tailNext returns the next record. Whenever the reader has caught up it
// waits for flushed, which the writer signals after every Flush, and gives
// up when the deadline passes. A nil flushed means no further Flush is
// coming: the record must already be visible.
func tailNext(t *testing.T, tr *TailReader, flushed <-chan struct{}, deadline time.Duration) (uint64, string) {
	t.Helper()
	timeout := time.After(deadline)
	for {
		tick, payload, ok, err := tr.TryNext()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return tick, string(payload)
		}
		select {
		case <-flushed:
		case <-timeout:
			t.Fatal("tail reader saw no record before deadline")
		}
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
			// Flush is the tail-visibility barrier (the engine flushes at
			// every tick while a shipper is subscribed).
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

	tr := NewTailReader(filepath.Join(dir), 0)
	defer tr.Close()
	for want := uint64(0); want < records; want++ {
		tick, payload := tailNext(t, tr, flushed, 10*time.Second)
		if tick != want {
			t.Fatalf("tail returned tick %d, want %d", tick, want)
		}
		if payload != fmt.Sprintf("payload-%d", want) {
			t.Fatalf("tick %d payload %q", tick, payload)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ticks, _ := tailDrain(t, tr); len(ticks) != 0 {
		t.Fatalf("tail returned %d extra records", len(ticks))
	}
}

// TestTailTornFrameInvisible writes a frame in two halves directly to the
// segment file: the reader must return nothing until the second half lands,
// then the whole record — never a torn read.
func TestTailTornFrameInvisible(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))

	body := make([]byte, 8+5)
	binary.LittleEndian.PutUint64(body, 7)
	copy(body[8:], "hello")
	frame := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	copy(frame[8:], body)

	tr := NewTailReader(dir, 0)
	defer tr.Close()
	if _, _, ok, err := tr.TryNext(); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}

	for cut := 1; cut < len(frame); cut += 6 {
		if err := os.WriteFile(path, frame[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := tr.TryNext(); ok || err != nil {
			t.Fatalf("cut %d: torn frame visible: ok=%v err=%v", cut, ok, err)
		}
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	tick, payload, ok, err := tr.TryNext()
	if err != nil || !ok || tick != 7 || string(payload) != "hello" {
		t.Fatalf("complete frame: tick=%d payload=%q ok=%v err=%v", tick, payload, ok, err)
	}
}

func TestTailFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr := NewTailReader(dir, 0)
	defer tr.Close()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(0, []byte("a")))
	must(l.Flush())
	if tick, p := tailNext(t, tr, nil, time.Second); tick != 0 || p != "a" {
		t.Fatalf("got %d %q", tick, p)
	}
	// Catch up fully, then rotate: the reader is parked at the live tail of
	// the now-sealed segment and must hop to the successor.
	if ticks, _ := tailDrain(t, tr); len(ticks) != 0 {
		t.Fatal("unexpected extra records")
	}
	must(l.Rotate(1))
	must(l.Append(1, []byte("b")))
	must(l.Flush())
	if tick, p := tailNext(t, tr, nil, time.Second); tick != 1 || p != "b" {
		t.Fatalf("after rotation got %d %q", tick, p)
	}
}

// TestTailSkipsSealedSegmentsBelowFrom verifies the from hint skips whole
// sealed segments (their records all precede the successor's start tick)
// and that segments pruned mid-follow are skipped, not an error.
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
	tr := NewTailReader(dir, 25)
	defer tr.Close()
	ticks, _ := tailDrain(t, tr)
	if len(ticks) == 0 || ticks[0] != 20 {
		t.Fatalf("tail started at %v, want first tick 20", ticks)
	}
	if ticks[len(ticks)-1] != 29 {
		t.Fatalf("tail ended at %d, want 29", ticks[len(ticks)-1])
	}

	// A reader parked before pruned segments skips them silently.
	tr2 := NewTailReader(dir, 0)
	defer tr2.Close()
	must(l.Prune(20))
	ticks2, _ := tailDrain(t, tr2)
	if len(ticks2) == 0 || ticks2[0] != 20 {
		t.Fatalf("post-prune tail started at %v, want 20", ticks2)
	}
}

// TestTailSealedCorruptionIsSticky: garbage in the middle of a sealed
// segment is an error (durably acknowledged records must never be skipped),
// and the error repeats.
func TestTailSealedCorruptionIsSticky(t *testing.T) {
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
	must(l.Append(0, []byte("aaaa")))
	must(l.Append(1, []byte("bbbb")))
	must(l.Rotate(2))
	must(l.Append(2, []byte("cccc")))
	must(l.Flush())

	// Flip a byte inside the second record of the sealed first segment.
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	must(os.WriteFile(path, data, 0o644))

	tr := NewTailReader(dir, 0)
	defer tr.Close()
	if tick, _, ok, err := tr.TryNext(); err != nil || !ok || tick != 0 {
		t.Fatalf("first record: tick=%d ok=%v err=%v", tick, ok, err)
	}
	_, _, _, err = tr.TryNext()
	if err == nil {
		t.Fatal("sealed-segment corruption not reported")
	}
	if _, _, _, err2 := tr.TryNext(); err2 != err {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
}

// TestTailMatchesReaderOnQuiescentLog: on a sealed, quiescent log the tail
// reader returns exactly the record sequence of the batch Reader.
func TestTailMatchesReaderOnQuiescentLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 50; tick++ {
		if err := l.Append(tick, []byte(fmt.Sprintf("p%d", tick))); err != nil {
			t.Fatal(err)
		}
		if tick == 20 || tick == 40 {
			if err := l.Rotate(tick + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantTicks, wantPayloads := readAll(t, r)
	r.Close()

	tr := NewTailReader(dir, 0)
	defer tr.Close()
	gotTicks, gotPayloads := tailDrain(t, tr)
	if len(gotTicks) != len(wantTicks) {
		t.Fatalf("tail saw %d records, reader %d", len(gotTicks), len(wantTicks))
	}
	for i := range wantTicks {
		if gotTicks[i] != wantTicks[i] || gotPayloads[i] != wantPayloads[i] {
			t.Fatalf("record %d: tail (%d,%q) reader (%d,%q)",
				i, gotTicks[i], gotPayloads[i], wantTicks[i], wantPayloads[i])
		}
	}
}
