package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Reader iterates the log's records in order, one record per Next call,
// starting at the first segment that can hold a record at or above its from
// tick. It owns its file handles, so any number of Readers may scan one
// directory concurrently (the recovery pipeline reads the log while restore
// workers stream the backup image), and a Reader may run alongside an open
// Log as long as the writer is quiescent — Log.NewReader flushes buffered
// appends to guarantee that.
//
// A torn or corrupt tail in the final segment silently ends the scan (those
// ticks were never acknowledged as durable); corruption inside a sealed
// segment that is read is reported as an error. Skipped segments are never
// opened.
type Reader struct {
	dir     string
	starts  []uint64 // the segments to read, in order
	skipped int      // sealed segments below from, left unopened
	seg     int      // index into starts of the open segment; len(starts) when done
	sc      segScanner
	// segTick/segHas are the last tick of the segment being (or last) read:
	// with sc.off, what the Log needs to know about its final segment.
	segTick uint64
	segHas  bool
	log     *Log  // told the final segment's valid length, if set
	err     error // sticky: a corrupt log never silently resumes
}

// NewReader opens a reader over the segments currently in dir that can hold
// a record with tick >= from. Records below from may still be returned (the
// caller filters); from only lets the reader skip whole sealed segments.
func NewReader(dir string, from uint64) (*Reader, error) {
	starts, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	skip := firstNeeded(starts, from)
	telSegsSkipped.Add(uint64(skip))
	return &Reader{dir: dir, starts: starts[skip:], skipped: skip}, nil
}

// NewReader flushes buffered appends and opens a reader over the log's
// current segments from the first that can hold tick from (see the package
// NewReader). The caller must not append while the reader is in use. A
// reader that walks the final segment to its end tells the log where the
// valid frames stop, which saves a freshly opened log its own scan.
func (l *Log) NewReader(from uint64) (*Reader, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.bw != nil {
		if err := l.bw.Flush(); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
	dir := l.dir
	l.mu.Unlock()
	r, err := NewReader(dir, from)
	if err != nil {
		return nil, err
	}
	r.log = l
	return r, nil
}

// Next returns the next record in log order. The payload is a slice of a
// read chunk shared with neighbouring records: it stays valid until Release
// covers it or the reader is closed, may be handed to another goroutine, and
// must be treated as read-only — never append to or write through it. At the end of
// the log it returns io.EOF. An error is sticky: once a sealed segment
// reports corruption, every further Next repeats the error rather than
// silently resuming past the hole.
func (r *Reader) Next() (tick uint64, payload []byte, err error) {
	if r.err != nil {
		return 0, nil, r.err
	}
	for {
		if r.sc.f == nil {
			if r.seg >= len(r.starts) {
				return 0, nil, io.EOF
			}
			f, err := os.Open(filepath.Join(r.dir, segName(r.starts[r.seg])))
			if err != nil {
				return 0, nil, fmt.Errorf("wal: %w", err)
			}
			r.sc.open(f)
			r.segHas = false
		}
		tick, payload, ok, err := r.sc.next()
		if err != nil {
			// A device read failure, not frame content: sticky, like
			// sealed-segment corruption — never silently resume past it.
			r.err = fmt.Errorf("wal: %w", err)
			return 0, nil, r.err
		}
		if ok {
			r.segTick, r.segHas = tick, true
			return tick, payload, nil
		}
		// The scan stopped short: clean end, torn tail, or corruption.
		if err := r.finishSegment(); err != nil {
			r.err = err
			return 0, nil, err
		}
	}
}

// finishSegment closes the open segment after its scan stopped, erroring if
// a sealed (non-final) segment ended before its physical size — records that
// were acknowledged durable must never be skipped silently. The end of the
// final segment is reported to the owning log, if any.
func (r *Reader) finishSegment() error {
	start := r.starts[r.seg]
	r.closeSegment()
	lastSeg := r.seg == len(r.starts)-1
	r.seg++
	if !lastSeg {
		if r.sc.off < r.sc.size {
			return corruptErr(start, r.sc.off, r.sc.size)
		}
		return nil
	}
	if r.log != nil {
		return r.log.tailScanned(start, r.sc.off, r.segTick, r.segHas)
	}
	return nil
}

func (r *Reader) closeSegment() {
	if r.sc.f != nil {
		r.sc.f.Close() //nolint:errcheck // read-only handle
		r.sc.f = nil
	}
}

// Skipped returns the number of sealed segments the reader left unopened
// because none of their records can be at or above from.
func (r *Reader) Skipped() int { return r.skipped }

// BytesRead returns the bytes read from segment files so far.
func (r *Reader) BytesRead() int64 { return r.sc.read }

// Records returns how many records Next has returned.
func (r *Reader) Records() uint64 { return r.sc.ring.returned }

// Release tells the reader that the caller holds no payload of the first n
// records Next returned, so the chunks they were read into can be reused.
// Released counts only grow; a reader nobody releases keeps every chunk it
// read until Close.
func (r *Reader) Release(n uint64) { r.sc.ring.release(n) }

// Close releases the reader's file handle and read chunks: no payload it
// returned may be read afterwards. The reader must not be used afterwards.
func (r *Reader) Close() error {
	r.closeSegment()
	r.sc.ring.close()
	r.seg = len(r.starts)
	return nil
}
