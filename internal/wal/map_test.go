package wal

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Tests of the scanner's mappings: a payload aliases the mapping of its
// segment, which lives until Release covers it or the reader closes. A race
// build reads the same extents into the heap (disk.MapFile), so every test
// here runs both ways.

// mappings returns how many mappings the reader holds.
func mappings(r *Reader) int {
	n := len(r.sc.retired)
	if r.sc.cur != nil {
		n++
	}
	return n
}

// mappedIn counts the lines of this process's memory map that name a file
// in dir; 0 where /proc is not there.
func mappedIn(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0
	}
	return strings.Count(string(maps), dir+string(filepath.Separator))
}

// TestFollowerRemapsAcrossStraddlingFrames: an appender writes a segment's
// frames in pieces cut at random offsets — inside headers, inside bodies,
// at frame ends — while a follower reads. Each time the follower catches up
// with a piece that ends inside a frame, the bytes it has mapped end inside
// that frame, and the frame completes only once the follower extends the
// mapping (where it reaches past the file's end) or maps again. Every
// payload is held, never released, and must come back intact at the end, in
// order; the bytes read are the file's, each once.
func TestFollowerRemapsAcrossStraddlingFrames(t *testing.T) {
	defer func(n int) { mapAhead = n }(mapAhead)
	mapAhead = 4 * os.Getpagesize() // a reach many pieces outgrow
	dir := t.TempDir()
	path := filepath.Join(dir, segName(0))
	rng := rand.New(rand.NewSource(7))
	stream := appendSegHeader(nil)
	var want [][]byte
	for tick := uint64(0); tick < 120; tick++ {
		p := make([]byte, []int{0, 3, 700, 4096, 9000, 20000}[rng.Intn(6)]+rng.Intn(5))
		rng.Read(p)
		want = append(want, p)
		stream = append(stream, encodeFrame(tick, p)...)
	}
	f, err := os.Create(path)
	must(t, err)
	defer f.Close()

	wrote := make(chan bool)      // a piece is in the file; false: the last one
	caught := make(chan struct{}) // the follower is at EOF
	go func() {
		for rest := stream; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(30000))
			if _, err := f.Write(rest[:n]); err != nil {
				t.Error(err)
				n = len(rest) // the last piece: the follower misses records
			}
			rest = rest[n:]
			wrote <- len(rest) > 0
			<-caught
		}
	}()

	r, err := NewReader(dir, 0)
	must(t, err)
	defer r.Close()
	var got [][]byte
	straddles, extended, reach := 0, 0, false
	for more := true; more; {
		more = <-wrote
		before, held := r.sc.cur, mappings(r)
		for {
			tick, payload, err := r.Next()
			if err == io.EOF {
				break
			}
			must(t, err)
			if tick != uint64(len(got)) {
				t.Fatalf("record %d has tick %d", len(got), tick)
			}
			got = append(got, payload)
		}
		if before != nil && mappings(r) == held && len(r.sc.cur) > len(before) {
			extended++ // the same mapping, grown over the new bytes
		}
		reach = reach || cap(r.sc.cur) > len(r.sc.cur)
		if r.sc.end > r.sc.off { // caught up inside a frame the mapping cuts
			straddles++
		}
		caught <- struct{}{}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d (%d bytes) changed after the follower remapped", i, len(want[i]))
		}
	}
	t.Logf("%d mappings, %d extended, %d catch-ups inside a frame", mappings(r), extended, straddles)
	if m := mappings(r); straddles < 5 || m < 10 {
		t.Errorf("%d mappings, %d catch-ups inside a frame; want several of each", m, straddles)
	}
	// A mapping that reaches past the file's end is extended; a heap copy never is.
	if reach != (extended > 0) {
		t.Errorf("mappings reach past the end: %v, extended %d times", reach, extended)
	}
	if r.BytesRead() != int64(len(stream)) {
		t.Errorf("BytesRead %d, want the segment's %d bytes", r.BytesRead(), len(stream))
	}
}

// TestTailCutUnderHeldPayloads: the reader that finds a torn tail tells the
// log its valid length, and the log truncates the segment there while the
// reader still holds every payload it returned. The valid length is a page
// multiple and the torn frame spans several pages, so the truncation drops
// whole pages of the reader's mapping: the payloads must stay intact, and
// the reader must not touch the cut pages when asked again — nor when it
// follows the records appended afterwards.
func TestTailCutUnderHeldPayloads(t *testing.T) {
	page := os.Getpagesize()
	dir := t.TempDir()
	l := mustOpen(t, dir)
	var want [][]byte
	for tick := uint64(0); tick < 4; tick++ {
		n := page - 16
		if tick == 0 {
			n -= segHdrLen // the header and four frames fill four pages
		}
		p := bytes.Repeat([]byte{byte('a' + tick)}, n)
		must(t, l.Append(tick, p))
		want = append(want, p)
	}
	must(t, l.Close())
	path := filepath.Join(dir, segName(0))
	torn := encodeFrame(4, make([]byte, 3*page))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	must(t, err)
	_, err = f.Write(torn[:len(torn)-5])
	must(t, err)
	must(t, f.Close())

	l = mustOpen(t, dir)
	defer l.Close()
	r, err := l.NewReader(0)
	must(t, err)
	defer r.Close()
	var got [][]byte
	for {
		_, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		must(t, err)
		got = append(got, payload)
	}
	info, err := os.Stat(path)
	must(t, err)
	if info.Size() != int64(4*page) {
		t.Fatalf("segment holds %d bytes after the read, want the %d valid ones", info.Size(), 4*page)
	}
	caughtUp(t, r)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d changed when the log cut the tail under it", i)
		}
	}
	read := r.BytesRead()
	must(t, l.Append(4, []byte("after the cut")))
	must(t, l.Flush())
	if tick, payload, err := r.Next(); err != nil || tick != 4 || string(payload) != "after the cut" {
		t.Fatalf("after the cut the reader returned tick %d %q (%v)", tick, payload, err)
	}
	// The new frame lies within the bytes the cut dropped, covered already.
	if r.BytesRead() != read {
		t.Errorf("BytesRead %d after the cut, want %d still", r.BytesRead(), read)
	}
}

// TestReaderEmptyAndRotatedSegments: sealed empty segments, rotations and an
// empty live segment read as before — every record once, in order — and an
// empty segment maps only its header. Release unmaps the finished segments'
// mappings, and Close every mapping the reader made.
func TestReaderEmptyAndRotatedSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	must(t, l.Rotate(1)) // an empty segment 0 is a no-op to rotate; 1 is not
	for tick := uint64(1); tick < 9; tick++ {
		must(t, l.Append(tick, bytes.Repeat([]byte{byte(tick)}, int(tick)*1000)))
		if tick%3 == 0 {
			must(t, l.Rotate(tick+1))
		}
	}
	must(t, l.Rotate(20))
	must(t, l.Rotate(30)) // segment 20 sealed empty, 30 live and empty
	must(t, l.Flush())

	r, err := NewReader(dir, 0)
	must(t, err)
	ticks, payloads := readAll(t, r)
	if len(ticks) != 8 || ticks[0] != 1 || ticks[7] != 8 {
		t.Fatalf("read ticks %v, want 1..8", ticks)
	}
	for i, p := range payloads {
		if p != string(bytes.Repeat([]byte{byte(i + 1)}, (i+1)*1000)) {
			t.Fatalf("tick %d payload differs", i+1)
		}
	}
	var size int64
	starts, err := segments(dir)
	must(t, err)
	for _, s := range starts {
		info, err := os.Stat(filepath.Join(dir, segName(s)))
		must(t, err)
		size += info.Size()
	}
	if r.BytesRead() != size {
		t.Errorf("BytesRead %d over %d segments, want their %d bytes", r.BytesRead(), len(starts), size)
	}
	// Segments 1, 4 and 7 hold records. The empty ones map their headers:
	// sealed 0's goes when it is retired before any record, sealed 20's waits
	// for tick 8's release, and live 30's stays for what is appended next.
	if m := mappings(r); m != 5 {
		t.Errorf("%d mappings held, want one per segment with records (3), sealed 20's and live 30's", m)
	}
	r.Release(r.Records())
	if m := mappings(r); m != 1 {
		t.Errorf("%d mappings held after every record was released, want live 30's", m)
	}
	// Unreleased mappings go at Close.
	r2, err := NewReader(dir, 0)
	must(t, err)
	readAll(t, r2)
	if mappings(r2) != 5 {
		t.Errorf("second reader holds %d mappings, want 5", mappings(r2))
	}
	must(t, r2.Close())
	must(t, r.Close())
	if m := mappings(r2); m != 0 {
		t.Errorf("%d mappings left after Close", m)
	}
	if n := mappedIn(t, dir); n != 0 {
		t.Errorf("%d ranges of the log still mapped after Close", n)
	}
}
