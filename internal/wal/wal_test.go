package wal

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// collect reads every record with tick >= from through a Reader, dropping
// the ones below from that the first kept segment may still return.
func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	r, err := l.NewReader(from)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ticks, payloads := readAll(t, r)
	got := map[uint64]string{}
	for i, tick := range ticks {
		if tick >= from {
			got[tick] = payloads[i]
		}
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for tick := uint64(0); tick < 10; tick++ {
		if err := l.Append(tick, []byte{byte('a' + tick)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	if got[3] != "d" {
		t.Errorf("tick 3 payload = %q", got[3])
	}
	// Read from the middle.
	mid := collect(t, l, 5)
	if len(mid) != 5 {
		t.Errorf("replay from 5 returned %d records", len(mid))
	}
	if _, ok := mid[4]; ok {
		t.Error("replay included tick below from")
	}
}

func TestAppendRejectsDecreasingTick(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(4, nil); err == nil {
		t.Error("decreasing tick accepted")
	}
	if err := l.Append(5, nil); err != nil {
		t.Errorf("equal tick rejected: %v", err)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 5; tick++ {
		if err := l.Append(tick, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(3, nil); err == nil {
		t.Error("reopened log lost tick high-water mark")
	}
	if err := l2.Append(7, []byte("y")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2, 0)
	if len(got) != 6 {
		t.Errorf("got %d records after reopen, want 6", len(got))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 5; tick++ {
		if err := l.Append(tick, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: append garbage bytes to the segment.
	segs, err := os.ReadDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %d", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].Name())
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != 5 {
		t.Errorf("torn tail: %d records, want 5", len(got))
	}
	// The torn bytes must be gone so appends are clean.
	if err := l2.Append(10, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2, 0); len(got) != 6 {
		t.Errorf("after truncate+append: %d records, want 6", len(got))
	}
}

func TestTornRecordBodyTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := os.ReadDir(dir)
	path := filepath.Join(dir, segs[0].Name())
	// A header promising more bytes than exist (torn body).
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{100, 0, 0, 0, 1, 2, 3, 4, 9, 9}) //nolint:errcheck
	f.Close()
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); len(got) != 1 {
		t.Errorf("%d records, want 1", len(got))
	}
}

func TestRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for tick := uint64(0); tick < 30; tick++ {
		if err := l.Append(tick, []byte{byte(tick)}); err != nil {
			t.Fatal(err)
		}
		if tick == 9 || tick == 19 {
			if err := l.Rotate(tick + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	starts, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 {
		t.Fatalf("%d segments, want 3", len(starts))
	}
	// All records still replayable across segments.
	if got := collect(t, l, 0); len(got) != 30 {
		t.Errorf("replay across segments: %d records, want 30", len(got))
	}
	// Prune below 10: the first segment (ticks 0..9) can go.
	if err := l.Prune(10); err != nil {
		t.Fatal(err)
	}
	starts, _ = segments(dir)
	if len(starts) != 2 {
		t.Errorf("after prune: %d segments, want 2", len(starts))
	}
	if got := collect(t, l, 10); len(got) != 20 {
		t.Errorf("after prune replay: %d records, want 20", len(got))
	}
	// Prune never deletes the active segment.
	if err := l.Prune(1 << 60); err != nil {
		t.Fatal(err)
	}
	starts, _ = segments(dir)
	if len(starts) == 0 {
		t.Error("prune removed the active segment")
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := l.Append(0, nil); err != ErrClosed {
		t.Errorf("Append after close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Errorf("Sync after close = %v, want ErrClosed", err)
	}
	if _, err := l.NewReader(0); err != ErrClosed {
		t.Errorf("NewReader after close = %v, want ErrClosed", err)
	}
}

func TestEncodeDecodeUpdates(t *testing.T) {
	in := []Update{{Cell: 100, Value: 42}, {Cell: 101, Value: 7}, {Cell: 5, Value: 0xFFFFFFFF}}
	buf := EncodeUpdates(nil, in)
	out, err := DecodeUpdates(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %v != %v", out, in)
	}
	// Empty batch.
	empty, err := DecodeUpdates(nil, EncodeUpdates(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v %v", empty, err)
	}
}

func TestDecodeUpdatesRejectsGarbage(t *testing.T) {
	if _, err := DecodeUpdates(nil, nil); err == nil {
		t.Error("empty payload accepted")
	}
	good := EncodeUpdates(nil, []Update{{Cell: 1, Value: 2}})
	if _, err := DecodeUpdates(nil, good[:len(good)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := DecodeUpdates(nil, append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: arbitrary update batches survive the codec.
func TestQuickUpdatesRoundTrip(t *testing.T) {
	f := func(cells []uint32, values []uint32) bool {
		n := len(cells)
		if len(values) < n {
			n = len(values)
		}
		in := make([]Update, n)
		for i := 0; i < n; i++ {
			in[i] = Update{Cell: cells[i], Value: values[i]}
		}
		out, err := DecodeUpdates(nil, EncodeUpdates(nil, in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: random append/rotate sequences always replay every record in
// order, regardless of where rotations fall.
func TestQuickRotationReplay(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		dir, err := os.MkdirTemp("", "walq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l, err := Open(dir)
		if err != nil {
			return false
		}
		defer l.Close()
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		for tick := 0; tick < n; tick++ {
			if err := l.Append(uint64(tick), []byte{byte(tick)}); err != nil {
				return false
			}
			if rng.Intn(7) == 0 {
				if err := l.Rotate(uint64(tick + 1)); err != nil {
					return false
				}
			}
		}
		r, err := l.NewReader(0)
		if err != nil {
			return false
		}
		defer r.Close()
		for want := 0; ; want++ {
			tick, payload, err := r.Next()
			if err == io.EOF {
				return want == n
			}
			if err != nil || tick != uint64(want) || payload[0] != byte(tick) {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend64kUpdates(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	updates := make([]Update, 64000)
	for i := range updates {
		updates[i] = Update{Cell: uint32(i * 3), Value: uint32(i)}
	}
	payload := EncodeUpdates(nil, updates)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(uint64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMidLogCorruptionIsAnError: corruption in a SEALED (non-final) segment
// must be reported, not silently truncated — those ticks were acknowledged
// durable.
func TestMidLogCorruptionIsAnError(t *testing.T) {
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
	for tick := uint64(5); tick < 10; tick++ {
		if err := l.Append(tick, []byte("def")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST (sealed) segment's middle.
	starts, err := segments(dir)
	if err != nil || len(starts) != 2 {
		t.Fatalf("segments: %v %v", starts, err)
	}
	path := filepath.Join(dir, segName(starts[0]))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for err == nil {
		_, _, err = r.Next()
	}
	if err == io.EOF {
		t.Error("mid-log corruption read silently")
	}
}
