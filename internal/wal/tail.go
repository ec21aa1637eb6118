package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// TailReader follows a log directory incrementally, including the segment
// the writer is still appending to. It is the replication shipper's view of
// the log: a second, concurrent consumer that must see a record only once
// its tick frame is complete on disk, and must never see a torn read.
//
// TryNext is non-blocking: it returns the next complete record if one is
// physically present, or ok=false when the reader has caught up with the
// writer (the caller decides how to wait — the engine's tick-commit
// notification, a timer, or both). Completeness is judged purely from the
// frame: a record is returned only when its length header, full body, and
// CRC all check out, so a concurrently-appending writer can never expose a
// partial record — the torn frame just reads as "not yet".
//
// Rotation is followed automatically: the writer seals a segment (flush,
// sync, close) before creating its successor, so the moment a newer segment
// exists the current one is final — a frame that still does not parse then
// is corruption, reported as a sticky error exactly like Reader does for
// sealed segments. Segments pruned while the reader was between them (their
// ticks are covered by a checkpoint and acked by every subscriber) are
// skipped silently.
type TailReader struct {
	dir      string
	from     uint64 // segments whose successor starts at or below from are skipped
	cur      uint64 // start tick of the open (or last finished) segment
	curValid bool
	sc       segScanner // sc.f is nil between segments
	err      error      // sticky: sealed-segment corruption never silently resumes
}

// NewTailReader opens a tail-follow reader over dir. Records with tick
// below from may still be returned (the caller filters); from is only a
// hint that lets the reader skip whole sealed segments that cannot contain
// any record at or above it. The directory may be empty or not yet exist —
// TryNext reports "nothing yet" until the first segment appears.
func NewTailReader(dir string, from uint64) *TailReader {
	return &TailReader{dir: dir, from: from}
}

// TryNext returns the next complete record, or ok=false when the reader has
// caught up with the writer's durable frontier. The payload is a read-only
// slice of a freshly read chunk and safe to retain. Errors (sealed-segment
// corruption, I/O failures) are sticky.
func (t *TailReader) TryNext() (tick uint64, payload []byte, ok bool, err error) {
	if t.err != nil {
		return 0, nil, false, t.err
	}
	for {
		if t.sc.f == nil {
			opened, err := t.openNext()
			if err != nil {
				t.err = err
				return 0, nil, false, err
			}
			if !opened {
				return 0, nil, false, nil // no (further) segment yet
			}
		}
		tick, payload, ok, err := t.parse()
		if ok || err != nil {
			return tick, payload, ok, err
		}
		// The frame at the read offset does not (yet) parse. If a newer
		// segment exists, the writer sealed this one before creating it, so
		// the content here is final — but the successor may have appeared
		// between our failed parse and the check, so parse once more
		// before judging the tail. The sealed check lists the (few-entry)
		// log directory; it runs once per caught-up probe — one tick
		// signal or idle poll — which is microseconds against a tick.
		sealed, err := t.sealed()
		if err != nil {
			t.err = err
			return 0, nil, false, err
		}
		if !sealed {
			return 0, nil, false, nil // live tail: frame still being appended
		}
		if tick, payload, ok, err := t.parse(); ok || err != nil {
			return tick, payload, ok, err
		}
		if t.sc.off < t.sc.size {
			t.err = corruptErr(t.cur, t.sc.off, t.sc.size)
			return 0, nil, false, t.err
		}
		// Cleanly consumed to the end of a sealed segment: advance.
		t.Close() //nolint:errcheck // read-only handle
	}
}

// openNext opens the first unread segment: the successor of cur, or the
// starting segment chosen by the from hint. Segments that vanish between
// listing and opening were pruned (all their ticks below every consumer's
// watermark) and are skipped.
func (t *TailReader) openNext() (bool, error) {
	for {
		starts, err := segments(t.dir)
		if err != nil {
			if os.IsNotExist(err) {
				return false, nil // log directory not created yet
			}
			return false, fmt.Errorf("wal: %w", err)
		}
		next, found := t.pickNext(starts)
		if !found {
			return false, nil
		}
		f, err := os.Open(filepath.Join(t.dir, segName(next)))
		if err != nil {
			if os.IsNotExist(err) {
				// Pruned under us: re-list and move past it.
				t.cur, t.curValid = next, true
				continue
			}
			return false, fmt.Errorf("wal: %w", err)
		}
		t.sc = segScanner{f: f}
		t.cur, t.curValid = next, true
		return true, nil
	}
}

// pickNext chooses the segment to open from a sorted start list: after cur
// once reading has started, otherwise the last segment that can still hold
// records at or above from (a sealed segment's records are all below its
// successor's start tick, so predecessors of that pick are skippable).
func (t *TailReader) pickNext(starts []uint64) (uint64, bool) {
	if t.curValid {
		for _, s := range starts {
			if s > t.cur {
				return s, true
			}
		}
		return 0, false
	}
	if len(starts) == 0 {
		return 0, false
	}
	skip := firstNeeded(starts, t.from)
	telSegsSkipped.Add(uint64(skip))
	return starts[skip], true
}

// sealed reports whether a segment newer than the open one exists — the
// writer's rotation order (flush, sync, close, then create the successor)
// makes that the proof the open segment's bytes are final.
func (t *TailReader) sealed() (bool, error) {
	starts, err := segments(t.dir)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	for _, s := range starts {
		if s > t.cur {
			return true, nil
		}
	}
	return false, nil
}

// parse returns the frame at the read offset through the package's single
// frame scanner. ok=false with a nil error means no complete valid frame is
// present there (torn tail, corruption — the caller judges which); a
// non-nil error is a real device failure and is made sticky here rather
// than reading as "nothing yet" forever.
func (t *TailReader) parse() (tick uint64, payload []byte, ok bool, err error) {
	off := t.sc.off
	tick, payload, ok, err = t.sc.next()
	if err != nil {
		t.err = fmt.Errorf("wal: segment %s at offset %d: %w", segName(t.cur), off, err)
		return 0, nil, false, t.err
	}
	return tick, payload, ok, nil
}

// Close releases the reader's file handle. The reader must not be used
// afterwards.
func (t *TailReader) Close() error {
	if t.sc.f != nil {
		err := t.sc.f.Close()
		t.sc.f = nil
		return err
	}
	return nil
}
