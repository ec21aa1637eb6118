// Package wal implements the logical log of Section 3.1: instead of
// physically logging every state change (which would exhaust disk bandwidth
// at MMO update rates), the engine appends one compact record per tick
// describing the tick's updates, and recovery replays those records on top
// of the newest complete checkpoint to reach the exact crash tick.
//
// The log is a directory of append-only segment files. Records are CRC
// framed; a torn tail (crash mid-append) is detected and truncated before
// the first byte is appended after a reopen. Segments rotate when a
// checkpoint completes, so segments wholly covered by the double backup can
// be pruned — and skipped by a recovery that does not need them.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

const (
	segPrefix = "wal-"
	segSuffix = ".seg"

	// maxRecordSize bounds a single record; larger lengths mark corruption.
	maxRecordSize = 1 << 28
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is a tick-granular logical log.
type Log struct {
	mu  sync.Mutex
	dir string
	// f and bw are nil from Open until the tail of the final segment has
	// been measured and truncated (see ensureTail).
	f        *os.File
	bw       *bufio.Writer
	segStart uint64
	segEmpty bool // no record in the active segment yet
	lastTick uint64
	hasTick  bool
	closed   bool
	hdr      [16]byte // Append's frame header scratch (a local would escape)
}

func segName(start uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segments returns the sorted segment start ticks present in dir.
func segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if v, ok := parseSegName(e.Name()); ok {
			starts = append(starts, v)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// Open opens (creating if necessary) the log in dir. Finding the end of the
// final segment — and truncating any torn tail a crash left there — is
// deferred: a recovery reader that walks that segment anyway reports its
// valid length (see Log.NewReader), and otherwise the first Append, Sync,
// Rotate or Close scans it. Either way the tail is truncated before a byte
// is appended.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir}
	starts, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(starts) == 0 {
		if err := l.openSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.segStart = starts[len(starts)-1]
	return l, nil
}

func (l *Log) openSegment(start uint64) error {
	path := filepath.Join(l.dir, segName(start))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segStart = start
	l.segEmpty = true
	return nil
}

// ensureTail makes the log writable after Open: unless a reader already
// reported the final segment's valid length, scan it now. Caller holds mu.
func (l *Log) ensureTail() error {
	if l.f != nil {
		return nil
	}
	r := &Reader{dir: l.dir, starts: []uint64{l.segStart}}
	defer r.Close()
	for {
		if _, _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	return l.openTail(r.sc.off, r.segTick, r.segHas)
}

// tailScanned is a reader's report that the segment starting at start holds
// validLen bytes of valid frames, the last at lastTick. If that is the final
// segment and its tail is still unmeasured, the log truncates it there and
// positions the writer — the scan Open deferred, done by a read that was
// happening anyway.
func (l *Log) tailScanned(start uint64, validLen int64, lastTick uint64, hasTick bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f != nil || start != l.segStart {
		return nil
	}
	return l.openTail(validLen, lastTick, hasTick)
}

// openTail opens the final segment for appending after validLen bytes,
// cutting off whatever a crash left beyond them. Caller holds mu.
func (l *Log) openTail(validLen int64, lastTick uint64, hasTick bool) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.segStart)), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segEmpty = validLen == 0
	l.lastTick = lastTick
	l.hasTick = hasTick
	return nil
}

// Append writes one tick record. Ticks must be non-decreasing.
func (l *Log) Append(tick uint64, payload []byte) error {
	var t0 time.Time
	if telemetry.Enabled() {
		t0 = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.ensureTail(); err != nil {
		return err
	}
	if l.hasTick && tick < l.lastTick {
		return fmt.Errorf("wal: tick %d before last appended %d", tick, l.lastTick)
	}
	// Frame: u32 length | u32 crc | u64 tick | payload, the CRC taken over
	// tick and payload in place — no staging copy of the record.
	hdr := l.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(8+len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], tick)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Update(crc32.ChecksumIEEE(hdr[8:]), crc32.IEEETable, payload))
	if _, err := l.bw.Write(hdr); err != nil {
		return err
	}
	if _, err := l.bw.Write(payload); err != nil {
		return err
	}
	l.segEmpty = false
	l.lastTick = tick
	l.hasTick = true
	telAppendBytes.Add(uint64(16 + len(payload)))
	telAppend.ObserveSince(t0)
	return nil
}

// Flush writes buffered records through to the active segment file without
// fsyncing. It is the visibility barrier for tail-follow consumers: after
// Flush, a TailReader sees every appended frame. Durability still comes
// from Sync (or rotation/close).
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.bw == nil {
		return nil // nothing appended since Open
	}
	return l.bw.Flush()
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	var t0 time.Time
	if telemetry.Enabled() {
		t0 = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.ensureTail(); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	telFsync.ObserveSince(t0)
	return nil
}

// Rotate seals the active segment and starts a new one whose records begin
// at nextTick. The engine rotates when a checkpoint completes.
//
// A segment's name is a promise readers skip by: every record in the
// segments before it has a tick below it. So a name at or below the last
// tick already logged (a range install is logged at the tick about to run)
// is raised to one past it — too high is merely not skippable, too low
// would hide a record from recovery. Rotating to the start of an active
// segment that is still empty has nothing to seal and is a no-op.
func (l *Log) Rotate(nextTick uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.ensureTail(); err != nil {
		return err
	}
	if l.segEmpty && nextTick == l.segStart {
		return nil
	}
	if !l.segEmpty && nextTick <= l.lastTick {
		nextTick = l.lastTick + 1
	}
	if nextTick <= l.segStart && l.segStart != 0 {
		return fmt.Errorf("wal: rotate to %d not after segment start %d", nextTick, l.segStart)
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(nextTick)
}

// Prune removes sealed segments that cannot contain any record with
// tick >= keepFrom: a segment is deletable when the next segment starts at
// or below keepFrom. The active segment is never deleted.
func (l *Log) Prune(keepFrom uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	starts, err := segments(l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(starts); i++ {
		if starts[i] == l.segStart {
			break
		}
		if starts[i+1] <= keepFrom {
			if err := os.Remove(filepath.Join(l.dir, segName(starts[i]))); err != nil {
				return fmt.Errorf("wal: prune: %w", err)
			}
		}
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.ensureTail(); err != nil {
		l.closed = true
		return err
	}
	l.closed = true
	if err := l.bw.Flush(); err != nil {
		l.f.Close()
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Replay invokes fn for every record with tick >= from, in order, reading
// only the segments that can hold one. A torn tail in the final segment is
// skipped silently (those ticks were never acknowledged as durable);
// corruption in the middle of the log is reported as an error.
func (l *Log) Replay(from uint64, fn func(tick uint64, payload []byte) error) error {
	r, err := l.NewReader(from)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if tick < from {
			continue
		}
		if err := fn(tick, payload); err != nil {
			return err
		}
	}
}
