package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readAll drains a Reader into tick→payload pairs, preserving order.
func readAll(t *testing.T, r *Reader) (ticks []uint64, payloads []string) {
	t.Helper()
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			return ticks, payloads
		}
		if err != nil {
			t.Fatal(err)
		}
		ticks = append(ticks, tick)
		payloads = append(payloads, string(payload))
	}
}

func TestReaderMatchesReplay(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := map[uint64]string{}
	for tick := uint64(0); tick < 20; tick++ {
		p := fmt.Sprintf("payload-%d", tick)
		if err := l.Append(tick, []byte(p)); err != nil {
			t.Fatal(err)
		}
		want[tick] = p
		if tick == 7 || tick == 13 {
			if err := l.Rotate(tick + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ticks, payloads := readAll(t, r)
	if len(ticks) != len(want) {
		t.Fatalf("reader saw %d records, want %d", len(ticks), len(want))
	}
	for i, tick := range ticks {
		if i > 0 && tick < ticks[i-1] {
			t.Fatalf("ticks out of order: %d after %d", tick, ticks[i-1])
		}
		if want[tick] != payloads[i] {
			t.Errorf("tick %d payload %q, want %q", tick, payloads[i], want[tick])
		}
	}
}

// TestConcurrentReaders: several Readers scanning one log directory at once
// each see the full record sequence — the contract the parallel recovery
// pipeline's log stage relies on.
func TestConcurrentReaders(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const records = 50
	for tick := uint64(0); tick < records; tick++ {
		if err := l.Append(tick, []byte{byte(tick)}); err != nil {
			t.Fatal(err)
		}
		if tick%17 == 16 {
			if err := l.Rotate(tick + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	counts := make([]int, workers)
	errs := make([]error, workers)
	readers := make([]*Reader, workers)
	for w := range readers {
		r, err := l.NewReader(0)
		if err != nil {
			t.Fatal(err)
		}
		readers[w] = r
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer readers[w].Close()
			next := uint64(0)
			for {
				tick, payload, err := readers[w].Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[w] = err
					return
				}
				if tick != next || len(payload) != 1 || payload[0] != byte(tick) {
					errs[w] = fmt.Errorf("worker %d: record %d = (%d, %v)", w, next, tick, payload)
					return
				}
				next++
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if counts[w] != records {
			t.Errorf("worker %d saw %d records, want %d", w, counts[w], records)
		}
	}
}

func TestReaderTornTailEndsCleanly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 3; tick++ {
		if err := l.Append(tick, []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage half-record bytes to the final segment: a torn tail.
	starts, err := segments(dir)
	if err != nil || len(starts) != 1 {
		t.Fatalf("segments: %v %v", starts, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(starts[0])), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ticks, _ := readAll(t, r)
	if len(ticks) != 3 {
		t.Errorf("reader saw %d records through a torn tail, want 3", len(ticks))
	}
}

func TestReaderSealedSegmentCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for tick := uint64(0); tick < 5; tick++ {
		if err := l.Append(tick, []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(5, []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	starts, err := segments(dir)
	if err != nil || len(starts) != 2 {
		t.Fatalf("segments: %v %v", starts, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(starts[0])), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sawErr := false
	for {
		_, _, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("sealed-segment corruption scanned silently")
	}
	// The error is sticky: retrying must not silently resume past the hole.
	if _, _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("Next after corruption = %v, want the sticky corruption error", err)
	}
}

func TestReaderOnClosedLog(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.NewReader(0); err != ErrClosed {
		t.Errorf("NewReader on closed log = %v, want ErrClosed", err)
	}
}
