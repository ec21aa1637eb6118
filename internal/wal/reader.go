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
// workers stream the backup image), and a Reader may follow a log that is
// still being appended to: it is both recovery's replay source and the
// replication shipper's view of the live log.
//
// A record is returned only once its whole frame (length, body, CRC) is in
// the file, so a concurrent writer never exposes a torn read. At the end of
// the log Next returns io.EOF, but that EOF is not final: the last segment
// stays open at its first unparsed frame, and a later Next returns what was
// appended since, following rotation into newer segments. The writer seals
// a segment (flush, sync, close) before creating its successor, so once a
// newer segment exists the older one is final: a frame there that still
// does not parse is corruption, reported as a sticky error — records that
// were acknowledged durable are never skipped silently. A torn or corrupt
// tail in the newest segment reads as the end of the log (those ticks were
// never acknowledged). Skipped segments are never opened. A segment of
// another log format is a sticky *FormatError before any of its records; a
// newest segment shorter than its header is empty, a sealed one corrupt.
type Reader struct {
	dir     string
	starts  []uint64 // the open segment, then the newer ones known, in order
	skipped int      // sealed segments below from, left unopened
	sc      segScanner
	// segTick/segHas are the last tick of the segment being read: with
	// sc.off, what the Log needs to know about its final segment.
	segTick uint64
	segHas  bool
	log     *Log  // told the final segment's valid length, if set
	err     error // sticky: a corrupt log never silently resumes
}

// NewReader opens a reader over dir from the first segment that can hold a
// record with tick >= from. Records below from may still be returned (the
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

// NewReader flushes buffered appends and opens a reader over the log from
// the first segment that can hold tick from (see the package NewReader).
// The caller must not append while the reader is in use. A reader that
// walks the final segment to its end tells the log where the valid frames
// stop, which saves a freshly opened log its own scan.
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

// Next returns the next record in log order. The payload is a slice of the
// segment's read-only mapping, shared with neighbouring records: it stays
// valid until Release covers it or the reader is closed, may be handed to
// another goroutine, and must be treated as read-only — never append to or
// write through it. At the end of the log it returns io.EOF; a later call
// returns the records appended since. An error is sticky: once a sealed
// segment reports corruption, every further Next repeats the error rather
// than silently resuming past the hole.
func (r *Reader) Next() (tick uint64, payload []byte, err error) {
	if r.err != nil {
		return 0, nil, r.err
	}
	for {
		if r.sc.f == nil {
			if len(r.starts) == 0 {
				if _, err := r.listNewer(); err != nil {
					return 0, nil, err
				}
				if len(r.starts) == 0 {
					return 0, nil, io.EOF
				}
			}
			f, err := os.Open(filepath.Join(r.dir, segName(r.starts[0])))
			if err != nil {
				return 0, nil, fmt.Errorf("wal: %w", err)
			}
			r.sc.open(f)
			r.segHas = false
		}
		if tick, payload, ok, err := r.scan(); ok || err != nil {
			return tick, payload, err
		}
		// The scan stopped short: a clean end, a frame still being
		// appended, a torn tail or corruption. Only a newer segment tells
		// the last two from the first two.
		if len(r.starts) == 1 {
			newer, err := r.listNewer()
			if err != nil {
				return 0, nil, err
			}
			if !newer {
				if r.log != nil {
					if err := r.log.tailScanned(r.starts[0], r.sc.off, r.segTick, r.segHas); err != nil {
						r.err = err
						return 0, nil, err
					}
				}
				return 0, nil, io.EOF
			}
			// The successor may have appeared between the failed scan and
			// the listing, so the now-sealed segment is scanned once more.
			if tick, payload, ok, err := r.scan(); ok || err != nil {
				return tick, payload, err
			}
		}
		if r.sc.off < r.sc.size || r.sc.off == 0 {
			r.err = corruptErr(r.starts[0], r.sc.off, r.sc.size)
			return 0, nil, r.err
		}
		r.closeSegment()
		r.starts = r.starts[1:]
	}
}

// scan returns the frame at the open segment's read offset, the segment's
// header checked first. ok=false with a nil error means no complete valid
// frame is there; an error is a device read failure, not frame content, or
// a *FormatError, and is sticky like sealed-segment corruption.
func (r *Reader) scan() (tick uint64, payload []byte, ok bool, err error) {
	off := r.sc.off
	if off == 0 {
		var version uint16
		if version, ok, err = r.sc.header(); ok && version != formatVersion {
			r.err = &FormatError{Segment: filepath.Join(r.dir, segName(r.starts[0])), Found: version, Want: formatVersion}
			return 0, nil, false, r.err
		}
	}
	if r.sc.off > 0 && err == nil {
		tick, payload, ok, err = r.sc.next()
	}
	if err != nil {
		r.err = fmt.Errorf("wal: segment %s at offset %d: %w", segName(r.starts[0]), off, err)
		return 0, nil, false, r.err
	}
	if ok {
		r.segTick, r.segHas = tick, true
	}
	return tick, payload, ok, nil
}

// listNewer lists the directory and appends the segments newer than the last
// one known, reporting whether there were any.
func (r *Reader) listNewer() (bool, error) {
	starts, err := segments(r.dir)
	if err != nil {
		r.err = fmt.Errorf("wal: %w", err)
		return false, r.err
	}
	n := len(r.starts)
	for _, s := range starts {
		if n == 0 || s > r.starts[n-1] {
			r.starts = append(r.starts, s)
		}
	}
	return len(r.starts) > n, nil
}

// closeSegment closes the open segment's handle and retires its mapping,
// which stays until Release covers the records read from it.
func (r *Reader) closeSegment() {
	if r.sc.f != nil {
		r.sc.retire()
		r.sc.f.Close() //nolint:errcheck // read-only handle
		r.sc.f = nil
	}
}

// Skipped returns the number of sealed segments the reader left unopened
// because none of their records can be at or above from.
func (r *Reader) Skipped() int { return r.skipped }

// BytesRead returns the segment bytes the reader has covered so far, each
// counted once however often it was mapped.
func (r *Reader) BytesRead() int64 { return r.sc.read }

// Records returns how many records Next has returned.
func (r *Reader) Records() uint64 { return r.sc.returned }

// Release tells the reader that the caller holds no payload of the first n
// records Next returned, so the mappings they alias can go once the reader
// has moved past them. Released counts only grow; a reader nobody releases
// keeps every mapping it made until Close.
func (r *Reader) Release(n uint64) { r.sc.release(n) }

// Close releases the reader's file handle and mappings: no payload it
// returned may be read afterwards. The reader must not be used afterwards.
func (r *Reader) Close() error {
	r.closeSegment()
	r.sc.close()
	r.err = io.EOF
	return nil
}
