package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Tests of the segment header: the log states its format in every segment,
// and a reader refuses any other before it returns a record.

// TestSegmentOfAnotherFormatIsRefused: a segment with no header, with
// another magic or with another version is a sticky *FormatError naming the
// segment and both versions, returned before any record — to a Reader and
// to a Log, whose first append scans the tail — and nothing is written to
// it.
func TestSegmentOfAnotherFormatIsRefused(t *testing.T) {
	frames := append(encodeFrame(0, []byte("a")), encodeFrame(1, []byte("b"))...)
	for _, tc := range []struct {
		name   string
		header []byte
		found  uint16
	}{
		{"no header", nil, 0},
		{"another magic", binary.LittleEndian.AppendUint16([]byte("GODBWL"), formatVersion), 0},
		{"another version", binary.LittleEndian.AppendUint16([]byte(segMagic), formatVersion+1), formatVersion + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segName(0))
			seg := append(bytes.Clone(tc.header), frames...)
			must(t, os.WriteFile(path, seg, 0o644))
			refused := func(what string, err error) {
				t.Helper()
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Fatalf("%s: %v, want a *FormatError", what, err)
				}
				if fe.Segment != path || fe.Found != tc.found || fe.Want != formatVersion {
					t.Errorf("%s: %+v, want segment %s, found %d, want %d", what, fe, path, tc.found, formatVersion)
				}
			}
			r, err := NewReader(dir, 0)
			must(t, err)
			defer r.Close()
			for i := 0; i < 2; i++ { // sticky
				tick, _, err := r.Next()
				refused("Next", err)
				if r.Records() != 0 {
					t.Fatalf("the refused segment returned tick %d", tick)
				}
			}
			l := mustOpen(t, dir)
			refused("Append", l.Append(2, []byte("c")))
			l.Close() //nolint:errcheck // refused again
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
				t.Errorf("the refused segment was rewritten (%v)", err)
			}
		})
	}
}

// TestTornHeaderOnFinalSegmentReadsEmpty: a final segment shorter than its
// header — a crash right after Open or Rotate created it — reads as the
// empty end of the log, not as another format. The next Append writes the
// header again and then its record, and a reopened log reads every record
// back.
func TestTornHeaderOnFinalSegmentReadsEmpty(t *testing.T) {
	for cut := 0; cut < segHdrLen; cut++ {
		dir := t.TempDir()
		l := mustOpen(t, dir)
		must(t, l.Append(0, []byte("sealed")))
		must(t, l.Rotate(1))
		must(t, l.Close())
		must(t, os.WriteFile(filepath.Join(dir, segName(1)), appendSegHeader(nil)[:cut], 0o644))

		r, err := NewReader(dir, 0)
		must(t, err)
		ticks, _ := readAll(t, r)
		r.Close()
		if len(ticks) != 1 || ticks[0] != 0 {
			t.Fatalf("cut %d: read ticks %v, want the sealed segment's 0", cut, ticks)
		}
		l = mustOpen(t, dir)
		must(t, l.Append(1, []byte("after")))
		must(t, l.Close())
		got, err := os.ReadFile(filepath.Join(dir, segName(1)))
		must(t, err)
		if want := append(appendSegHeader(nil), encodeFrame(1, []byte("after"))...); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: the final segment holds %x, want the header and the new frame %x", cut, got, want)
		}
		l = mustOpen(t, dir)
		if got := collect(t, l, 0); len(got) != 2 {
			t.Errorf("cut %d: reopened log holds %d records, want 2", cut, len(got))
		}
		must(t, l.Close())
	}
}

// TestTornHeaderOnSealedSegmentIsCorruption: Rotate syncs a segment's
// header before its successor exists, so a sealed segment shorter than its
// header — empty included — is damage: a sticky corruption error, not a
// format refusal and not an empty segment to read past.
func TestTornHeaderOnSealedSegmentIsCorruption(t *testing.T) {
	for _, cut := range []int{0, 3, segHdrLen - 1} {
		dir := t.TempDir()
		l := mustOpen(t, dir)
		must(t, l.Append(0, []byte("a")))
		must(t, l.Rotate(1))
		must(t, l.Append(1, []byte("b")))
		must(t, l.Close())
		must(t, os.Truncate(filepath.Join(dir, segName(0)), int64(cut)))

		r, err := NewReader(dir, 0)
		must(t, err)
		for i := 0; i < 2; i++ {
			_, _, err := r.Next()
			var fe *FormatError
			if err == nil || err == io.EOF || errors.As(err, &fe) || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("cut %d, call %d: %v, want the sticky corruption error", cut, i, err)
			}
		}
		r.Close()
	}
}

// TestFollowerBeforeHeaderFlush: a follower that opens the live segment
// before the writer has flushed its header — a fresh log, or the successor
// a Rotate just created — is caught up, and reads the records once they are
// flushed.
func TestFollowerBeforeHeaderFlush(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	r, err := NewReader(dir, 0)
	must(t, err)
	defer r.Close()
	caughtUp(t, r)
	must(t, l.Append(0, []byte("first")))
	must(t, l.Flush())
	if tick, p := nextRecord(t, r, nil, 0); tick != 0 || p != "first" {
		t.Fatalf("read tick %d %q, want 0 \"first\"", tick, p)
	}
	must(t, l.Rotate(1))
	caughtUp(t, r)
	caughtUp(t, r)
	must(t, l.Append(1, []byte("second")))
	must(t, l.Flush())
	if tick, p := nextRecord(t, r, nil, 0); tick != 1 || p != "second" {
		t.Fatalf("read tick %d %q, want 1 \"second\"", tick, p)
	}
	caughtUp(t, r)
}
