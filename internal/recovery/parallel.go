// Sharded, pipelined recovery: the paper's ΔTrecovery = ΔTrestore + ΔTreplay
// is a serial sum only on a single-threaded recoverer. RecoverParallel
// partitions the backup image by the caller's shard geometry, restores all
// shards concurrently with vectored reads, and overlaps log replay with the
// restore: each shard's replay is gated on that shard's "restored up to"
// watermark, so replay of already-restored shards proceeds while the rest of
// the image is still streaming in, and no logged update ever lands on an
// unrestored object.
package recovery

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ShardRange is one shard's contiguous object range [Lo, Hi).
type ShardRange struct{ Lo, Hi int }

// RecordSource streams tick-ordered log records from outside the local WAL:
// a cluster node's logged inbox. The pipeline
// merges it with the local log by tick (see ParallelOptions.Extra), which
// assumes both carry each tick's records in the same order, so that a copy
// torn by a crash is a prefix of the whole one.
type RecordSource interface {
	// Next returns the next record in tick order; ok=false ends the stream.
	// Each returned payload must stay valid until the pipeline completes
	// (records are fanned out to per-shard workers and consumed
	// asynchronously).
	Next() (tick uint64, payload []byte, ok bool, err error)
}

// ParallelOptions configures RecoverParallel.
type ParallelOptions struct {
	// A and B are the double backup.
	A, B *disk.Backup
	// Slab receives the restored state; it must hold objects×objSize bytes.
	// Only the words the restored image's populated map covers are read:
	// the rest must arrive zero, as in a fresh disk.MapZeroed slab.
	Slab []byte
	// Log is the logical log to replay. Nil recovers the image only.
	Log *wal.Log
	// Ranges partitions the object space into one range per shard; the
	// ranges must tile [0, objects) in order.
	Ranges []ShardRange
	// Apply applies one whole log record's effects restricted to shard's
	// object range, returning the number of updates it applied. Every shard
	// gets every record. Calls for one shard arrive in replay order (the
	// log's, merged with Extra) on a single goroutine; calls for different
	// shards run concurrently. An error stops the shard's replay at that
	// record, so Apply must refuse a record before it applies any of it for
	// the shards to stop at the same place. Required when Log is set.
	Apply func(shard int, tick uint64, payload []byte) (int64, error)
	// Extra, when non-nil, is a second record source merged with the local
	// log by tick, under one rule: a tick at or above the image floor that
	// Extra carries replays from Extra, and the log's records for that tick
	// are skipped — unless the log holds more records at that tick, when the
	// log's copy replays and Extra's is skipped. Every other tick replays from
	// the log. Each tick thus has exactly one source, so updates never apply
	// out of tick order, and a copy a crash tore (the log's final tick, or
	// Extra's) gives way to the other side's whole one. The log is still read
	// to its end (LastLogTick and LastTickRecords describe it alone). Requires
	// Log.
	Extra RecordSource
}

// ShardTiming is one shard's stage breakdown.
type ShardTiming struct {
	Shard  int
	Lo, Hi int
	// Restore is the wall time of this shard's image read (or zeroing).
	Restore time.Duration
	// Wait is how long the shard's replay worker was gated on the restore
	// watermark before it could apply its first record.
	Wait time.Duration
	// Replay is the wall time from the gate opening to the worker finishing.
	Replay time.Duration
	// Records is the number of log records the worker applied.
	Records int
}

// ParallelResult is a Result plus the pipeline's per-shard and per-stage
// timings. RestoreDuration spans the restore stage (start to last shard
// restored) and ReplayDuration the replay stage (first record applied to
// last worker done), so TotalDuration < RestoreDuration + ReplayDuration is
// the restore∥replay overlap made visible: the difference is exactly how
// much replay ran while restore was still streaming.
type ParallelResult struct {
	Result
	// TotalDuration is the pipeline wall time.
	TotalDuration time.Duration
	// Shards holds one entry per shard range.
	Shards []ShardTiming
	// LastLogTick is the highest tick present in the local Log, counted
	// before any skip (records below the image floor or superseded by Extra
	// included): it marks where the local WAL's durable history ends, which
	// the heal after a recovery with an extra source needs to know.
	LastLogTick uint64
	// SawLogTick reports whether the Log held any record at all.
	SawLogTick bool
	// LastTickRecords is the number of records the local Log holds at
	// LastLogTick. A crash can tear the log's final tick (e.g. a range
	// install flushed without the tick's update batch that follows it);
	// comparing this count against an extra source's complete copy of the
	// same tick detects the tear.
	LastTickRecords int
	// ApplyBusy is the replay stage's work, summed over the shards' appliers:
	// the time spent inside Apply.
	ApplyBusy time.Duration
	// BatchesInFlightMax is the most records that were between the log
	// reader and their last applier at once; never above the free list's
	// bound (batchesPerShard × shards).
	BatchesInFlightMax int
}

// Overlap returns the recovery time saved by pipelining restore and replay
// compared to running the measured stages back to back. It is never
// negative: 0 means replay started only after the last shard was restored
// (an unthrottled restore is over before the first record is decoded).
func (r *ParallelResult) Overlap() time.Duration {
	return max(0, r.RestoreDuration+r.ReplayDuration-r.TotalDuration)
}

// restoreChunk is the slice grain of a restore's vectored image reads: each
// run of populated words is read in one ReadRunVec of restoreChunk-sized
// slices (preadv on Linux), so even a multi-hundred-MB shard restores in a
// handful of syscalls.
const restoreChunk = 1 << 20

// batchesPerShard bounds the replay stage: at most batchesPerShard × shards
// records are in flight between the log reader and their last applier, so
// the reader can run that far ahead of a slow shard (or a shard still gated
// on its restore) and no further, and the log chunks held in memory are
// capped. The depth is there to absorb scheduling: with only a few records
// in flight the reader and the appliers block on each other once per
// record; measured on BenchmarkReplayPipeline when a decoder stage sat
// between them, 16 per shard replayed a third faster than 4 at one shard,
// and 32 added nothing.
const batchesPerShard = 16

// batch is one log record in flight from the reader to the appliers. It is
// taken from a free list, reused, and returned by the last applier done
// with it, so the steady state allocates nothing per record.
type batch struct {
	tick    uint64
	payload []byte // the whole record, as read
	// left counts the appliers still to finish with the batch.
	left atomic.Int32
	// mark counts the leading local-log records whose payloads nothing reads
	// once the batch is back on the free list: those fanned with or before it
	// and those skipped, never one still held or not yet fanned (see
	// RecoverParallel).
	mark uint64
}

// fanned, when set, runs on the log reader's goroutine once per record, after
// the record took its batch and before it is pushed to the feeds: the hook a
// test uses to act once the reader has run a given distance ahead.
var fanned func()

// RecoverParallel restores the newest complete checkpoint image with one
// concurrent reader per shard, then replays the logical log (merged with
// opts.Extra by tick) with per-shard workers fed in that order by a single
// reader, each worker applying every record to its own range. Shard s's
// worker applies nothing until shard s's restore watermark covers its whole
// range, but is not gated on any other shard — replay overlaps the
// remaining restores.
func RecoverParallel(opts ParallelOptions) (ParallelResult, error) {
	start := time.Now()
	var res ParallelResult
	res.BackupIndex = -1

	objects, objSize := opts.A.Objects(), opts.A.ObjSize()
	if len(opts.Slab) != objects*objSize {
		return res, fmt.Errorf("recovery: slab %d bytes, image holds %d", len(opts.Slab), objects*objSize)
	}
	ranges := opts.Ranges
	next := 0
	for _, r := range ranges {
		if r.Lo != next || r.Hi < r.Lo || r.Hi > objects {
			return res, fmt.Errorf("recovery: ranges do not tile [0,%d): bad range [%d,%d) after %d",
				objects, r.Lo, r.Hi, next)
		}
		next = r.Hi
	}
	if next != objects {
		return res, fmt.Errorf("recovery: ranges cover [0,%d), want [0,%d)", next, objects)
	}
	if opts.Log != nil && opts.Apply == nil {
		return res, fmt.Errorf("recovery: Log set without Apply")
	}
	if opts.Extra != nil && opts.Log == nil {
		return res, fmt.Errorf("recovery: Extra set without Log")
	}

	idx, h, maps, err := chooseBackup(opts.A, opts.B)
	if err != nil {
		return res, err
	}
	res.BackupIndex, res.Images = idx, maps
	src := opts.A
	if idx == 1 {
		src = opts.B
	}
	from := uint64(0)
	if idx >= 0 {
		res.Restored = true
		res.Epoch = h.Epoch
		res.AsOfTick = h.AsOfTick
		res.NextTick = h.AsOfTick + 1
		from = h.AsOfTick + 1
	}

	n := len(ranges)
	res.Shards = make([]ShardTiming, n)
	for s, r := range ranges {
		res.Shards[s] = ShardTiming{Shard: s, Lo: r.Lo, Hi: r.Hi}
	}

	// Per-shard slots, each written by exactly one goroutine and read only
	// after that goroutine is joined.
	restoredAt := make([]time.Time, n)  // when the shard's watermark reached Hi
	replayFirst := make([]time.Time, n) // when the worker applied its first record
	replayDone := make([]time.Time, n)  // when the worker finished
	shardErrs := make([]error, n)
	updates := make([]int64, n)

	// Restore stage: one goroutine per shard; closing gate[s] publishes that
	// shard s's watermark covers [Lo, Hi) — the happens-before edge that lets
	// its replay worker touch the slab range without locks.
	gate := make([]chan struct{}, n)
	for s := range gate {
		gate[s] = make(chan struct{})
	}
	for s := range ranges {
		go func(s int, r ShardRange) {
			defer close(gate[s])
			t0 := time.Now()
			if idx < 0 {
				clear(opts.Slab[r.Lo*objSize : r.Hi*objSize])
			} else if err := readImage(src, maps[idx], opts.Slab, r.Lo, r.Hi); err != nil {
				shardErrs[s] = fmt.Errorf("recovery: restore shard %d [%d,%d): %w", s, r.Lo, r.Hi, err)
			}
			restoredAt[s] = time.Now()
			res.Shards[s].Restore = restoredAt[s].Sub(t0)
		}(s, ranges[s])
	}

	// Replay stage: reader → appliers. The single reader fixes the order: it
	// merges the local log with Extra by tick and pushes every record onto
	// every shard's feed in that order; shard s's applier — the only
	// goroutine that writes shard s's slab range — takes records off its feed
	// in order and applies each to its range through Apply.
	var lastTick uint64
	sawTick := false
	var readerErr error
	var logBytes int64 // bytes of the local log read
	logSkipped := 0    // stale sealed segments left unopened
	// The local log's reader owns the chunks its payloads alias. It is closed
	// only once every applier is joined, and it reuses a chunk only once the
	// batches of all its records are back on the free list.
	// Every shard applies its feed in order, so a batch's last applier
	// finishes after every earlier batch's: a batch taken off the free list
	// releases all log records up to its mark.
	var logReader *wal.Reader
	if opts.Log != nil {
		// No channel below ever blocks its sender: each can hold every batch
		// there is. The reader's only wait is for a free batch.
		bound := batchesPerShard * n
		free := make(chan *batch, bound)
		feeds := make([]chan *batch, n)
		for s := range feeds {
			feeds[s] = make(chan *batch, bound)
		}
		applyBusy := make([]time.Duration, n)
		var appliers sync.WaitGroup
		for s := range feeds {
			appliers.Add(1)
			go func(s int) {
				// The per-record counters stay on this goroutine's stack
				// until it is done: the shards' slots sit side by side.
				var busy time.Duration
				var applied int64
				var records int
				var first time.Time
				w0 := time.Now()
				<-gate[s]
				g0 := time.Now()
				err := shardErrs[s] // an unrestored shard must not replay
				for b := range feeds[s] {
					if err == nil { // else drain, so the reader never blocks
						t0 := time.Now()
						if first.IsZero() {
							first = t0
						}
						var nUpd int64
						nUpd, err = opts.Apply(s, b.tick, b.payload)
						applied += nUpd
						if err != nil {
							err = fmt.Errorf("recovery: replay shard %d: %w", s, err)
						} else {
							records++
						}
						busy += time.Since(t0)
					}
					if b.left.Add(-1) == 0 {
						free <- b
					}
				}
				replayDone[s] = time.Now()
				st := &res.Shards[s]
				st.Wait, st.Replay, st.Records = g0.Sub(w0), replayDone[s].Sub(g0), records
				shardErrs[s], replayFirst[s], updates[s], applyBusy[s] = err, first, applied, busy
				appliers.Done()
			}(s)
		}

		allocated := 0
		// fan pushes one record onto every shard's feed; mark is the batch's
		// release mark (see batch.mark).
		fan := func(tick uint64, payload []byte, mark uint64) {
			if !sawTick || tick != lastTick {
				res.ReplayedTicks++
			}
			sawTick = true
			lastTick = tick
			var b *batch
			select {
			case b = <-free:
			default:
				if allocated < bound {
					allocated++
					b = &batch{}
				} else {
					b = <-free
				}
			}
			logReader.Release(b.mark)
			b.mark = mark
			b.tick, b.payload = tick, payload
			b.left.Store(int32(n))
			if fanned != nil {
				fanned()
			}
			for s := range feeds {
				feeds[s] <- b
			}
		}
		// The reader starts at the first segment that can hold a record at or
		// above from; sealed segments before it are never opened.
		var end logEnd
		var err error
		logReader, err = opts.Log.NewReader(from)
		if err == nil {
			ex := merge{src: opts.Extra, from: from, fan: fan}
			ex.advance()
			end, err = scanLog(logReader, func(tick uint64, payload []byte) error {
				switch {
				case tick < from:
					return nil
				case opts.Extra == nil:
					fan(tick, payload, logReader.Records())
					return nil
				}
				return ex.log(tick, payload, logReader.Records())
			})
			if err == nil {
				err = ex.finish(logReader.Records()) // the ticks past the log's end
			}
			logBytes, logSkipped = end.bytes, end.skipped
		}
		// The log's last tick is counted before any skip. When it is at or
		// above from, every record carrying it was in a segment just read.
		// Otherwise (a crash right after a checkpoint rotated the log) it may
		// sit in a skipped segment, and only an unskipped read tells.
		if err == nil && end.skipped > 0 && !(end.saw && end.lastTick >= from) {
			var r *wal.Reader
			if r, err = opts.Log.NewReader(0); err == nil {
				end, err = scanLog(r, func(uint64, []byte) error { r.Release(r.Records()); return nil })
				r.Close() //nolint:errcheck // read-only handles
				logBytes += end.bytes
			}
		}
		res.LastLogTick, res.SawLogTick, res.LastTickRecords = end.lastTick, end.saw, end.lastRecords
		if err != nil {
			readerErr = fmt.Errorf("recovery: replay: %w", err)
		}
		for s := range feeds {
			close(feeds[s])
		}
		appliers.Wait()
		if logReader != nil {
			logReader.Close() //nolint:errcheck // read-only handles
		}
		res.BatchesInFlightMax = allocated
		for s := range feeds {
			res.ApplyBusy += applyBusy[s]
		}
	} else {
		// Restore-only: join the restore goroutines via their gates.
		for s := range gate {
			<-gate[s]
		}
	}

	// All goroutines are joined: the per-shard slots are safe to read.
	var restoreEnd time.Time
	for s := range ranges {
		if restoredAt[s].After(restoreEnd) {
			restoreEnd = restoredAt[s]
		}
		res.ReplayedUpdates += updates[s]
	}
	res.RestoreDuration = restoreEnd.Sub(start)
	var firstApply, replayEnd time.Time
	for s := range ranges {
		if replayFirst[s].IsZero() {
			continue
		}
		if firstApply.IsZero() || replayFirst[s].Before(firstApply) {
			firstApply = replayFirst[s]
		}
		if replayDone[s].After(replayEnd) {
			replayEnd = replayDone[s]
		}
	}
	if !firstApply.IsZero() {
		res.ReplayDuration = replayEnd.Sub(firstApply)
	}
	res.TotalDuration = time.Since(start)
	if sawTick {
		res.NextTick = lastTick + 1
	}
	// Stage spans for the trace ring: the restore and replay stages overlap
	// by design, so their spans carry real (overlapping) start/end stamps
	// and the pipeline span records how much wall the overlap saved.
	if telemetry.Enabled() {
		restored := int64(0)
		if res.Restored {
			restored = 1
		}
		telemetry.RecordSpan("recovery/restore", start, restoreEnd,
			telemetry.Int("shards", int64(len(ranges))),
			telemetry.Int("restored", restored))
		if !firstApply.IsZero() {
			telemetry.RecordSpan("recovery/replay", firstApply, replayEnd,
				telemetry.Int("shards", int64(len(ranges))),
				telemetry.Int("replayed_ticks", int64(res.ReplayedTicks)),
				telemetry.Int("replayed_updates", res.ReplayedUpdates),
				telemetry.Int("log_bytes", logBytes),
				telemetry.Int("segments_skipped", int64(logSkipped)),
				telemetry.Int("apply_ns", int64(res.ApplyBusy)),
				telemetry.Int("batches_in_flight_max", int64(res.BatchesInFlightMax)))
		}
		telemetry.RecordSpan("recovery/pipeline", start, start.Add(res.TotalDuration),
			telemetry.Int("shards", int64(len(ranges))),
			telemetry.Int("overlap_ns", int64(res.Overlap())))
	}

	if readerErr != nil {
		return res, readerErr
	}
	for s := range ranges {
		if shardErrs[s] != nil {
			return res, shardErrs[s]
		}
	}
	return res, nil
}

// logEnd is what one read of the local log found: where its records end
// (ParallelResult's LastLogTick, SawLogTick and LastTickRecords) and how
// much of it the read touched.
type logEnd struct {
	lastTick    uint64
	saw         bool
	lastRecords int
	bytes       int64 // read from segment files
	skipped     int   // sealed segments below from, left unopened
}

// scanLog hands every record r returns to each, in log order, until each
// fails. The caller closes r.
func scanLog(r *wal.Reader, each func(tick uint64, payload []byte) error) (end logEnd, err error) {
	defer func() { end.bytes, end.skipped = r.BytesRead(), r.Skipped() }()
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			return end, err
		}
		if !end.saw || tick > end.lastTick {
			end.lastTick, end.saw, end.lastRecords = tick, true, 0
		}
		end.lastRecords++
		if err := each(tick, payload); err != nil {
			return end, err
		}
	}
}

// merge is the reader's view of ParallelOptions.Extra: the source read one
// record ahead, so the reader can interleave it with the local log by tick. A
// tick both carry is held back until the log has moved past it, then replays
// from one side only (see settle).
type merge struct {
	src  RecordSource // nil: the log alone
	from uint64       // the image floor; records below it are skipped
	fan  func(tick uint64, payload []byte, mark uint64)
	// tick and payload are the source's next record when ok.
	tick    uint64
	payload []byte
	ok      bool
	err     error
	// held reports a tick both carry whose log records are still being read:
	// shared is the tick, srcRecs the source's records at it and logRecs the
	// log's, each with its release mark.
	held    bool
	shared  uint64
	srcRecs [][]byte
	logRecs []heldRecord
}

// heldRecord is a log record held back at a shared tick, with the log's
// record count through it (the mark it is fanned with if the log wins).
type heldRecord struct {
	payload []byte
	mark    uint64
}

// advance reads the source's next record.
func (m *merge) advance() {
	if m.src != nil {
		m.tick, m.payload, m.ok, m.err = m.src.Next()
	}
}

// log takes the local log's next record at or above the floor; n counts the
// log records read, this one included, so the first n-1 are done with once
// the held tick is settled.
func (m *merge) log(tick uint64, payload []byte, n uint64) error {
	if !m.held || tick != m.shared {
		m.settle(n - 1)
		// The source's ticks below this one replay first.
		for ; m.err == nil && m.ok && m.tick < tick; m.advance() {
			if m.tick >= m.from {
				m.fan(m.tick, m.payload, n-1)
			}
		}
		for ; m.err == nil && m.ok && m.tick == tick; m.advance() {
			m.held, m.shared = true, tick
			m.srcRecs = append(m.srcRecs, m.payload)
		}
		if m.err != nil {
			return fmt.Errorf("extra source: %w", m.err)
		}
	}
	if m.held {
		m.logRecs = append(m.logRecs, heldRecord{payload, n})
		return nil
	}
	m.fan(tick, payload, n)
	return nil
}

// settle replays the held tick from one side: the source's copy, unless the
// log holds more records at that tick. Either copy is complete unless a crash
// tore it, and a torn copy is a prefix of the whole one, so the longer copy is
// the whole tick. done counts the log records no longer needed once the
// source's copy replays in place of the log's.
func (m *merge) settle(done uint64) {
	if !m.held {
		return
	}
	if len(m.srcRecs) >= len(m.logRecs) {
		for _, p := range m.srcRecs {
			m.fan(m.shared, p, done)
		}
	} else {
		for _, r := range m.logRecs {
			m.fan(m.shared, r.payload, r.mark)
		}
	}
	clear(m.srcRecs)
	clear(m.logRecs)
	m.srcRecs, m.logRecs, m.held = m.srcRecs[:0], m.logRecs[:0], false
}

// finish replays what is left once the log has ended: the held tick, then
// the source's ticks past the log. done counts the log records read.
func (m *merge) finish(done uint64) error {
	m.settle(done)
	for ; m.err == nil && m.ok; m.advance() {
		if m.tick >= m.from {
			m.fan(m.tick, m.payload, done)
		}
	}
	if m.err != nil {
		return fmt.Errorf("extra source: %w", m.err)
	}
	return nil
}
