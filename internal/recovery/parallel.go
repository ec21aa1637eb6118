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

// ImageSource is an alternative restore image: when ParallelOptions.Image is
// set, the pipeline restores every shard range from it instead of choosing
// among the A/B disk backups. It is the hook peer-RAM recovery uses to
// stream a compressed replica image held in a surviving node's memory
// through the same gated restore∥replay pipeline as a disk image.
type ImageSource interface {
	// Info identifies the image: the checkpoint epoch it carries and the
	// first tick it does NOT cover (replay starts there). NextTick 0 means
	// an image of the pre-tick world — structurally a zeroed slab.
	Info() (epoch, nextTick uint64, err error)
	// ReadRange fills dst with the image bytes of objects [lo, hi);
	// len(dst) is exactly (hi-lo)×objSize. Shard restore goroutines call it
	// concurrently for disjoint ranges.
	ReadRange(lo, hi int, dst []byte) error
}

// RecordSource streams tick-ordered log records from outside the local WAL.
// When ParallelOptions.Prelude is set, its records replay — through the same
// gated per-shard workers — before the local log's, and local records at or
// below the prelude's last tick are skipped: for every tick exactly one
// source is authoritative, so absolute updates and re-executed actions never
// apply out of tick order.
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
	Slab []byte
	// Log is the logical log to replay. Nil recovers the image only.
	Log *wal.Log
	// Ranges partitions the object space; the ranges must tile [0, objects)
	// in order. Empty means an even split into Shards ranges.
	Ranges []ShardRange
	// Shards is the partition width used when Ranges is empty. Values < 1
	// (and any excess over the object count) are clamped.
	Shards int
	// Apply applies one whole log record's effects restricted to shard's
	// object range, returning the number of updates it applied. Every shard
	// gets every record Split declines. Calls for one shard (Apply and
	// ApplyUpdates alike) arrive in log order on a single goroutine; calls
	// for different shards run concurrently. Required when Log is set.
	Apply func(shard int, tick uint64, payload []byte) (int64, error)
	// Split, when non-nil, names the records that are plain update batches:
	// for such a record it returns the wal.EncodeUpdates bytes inside the
	// payload and true. The pipeline decodes those once, straight into one
	// bucket per shard, and hands shard s only its own bucket through
	// ApplyUpdates instead of the whole record through Apply. It runs on the
	// log reader's goroutine, once per record.
	Split func(payload []byte) (batch []byte, ok bool)
	// CellBounds[s] is one past the last cell shard s owns: ascending, one
	// per shard range. An update at or past the last bound is dropped and
	// not counted. Required with Split.
	CellBounds []uint32
	// ApplyUpdates applies shard's bucket of one split record — every update
	// in it is the shard's own, in batch order. Required with Split.
	ApplyUpdates func(shard int, tick uint64, updates []wal.Update)
	// Image, when non-nil, replaces the A/B disk restore: every shard reads
	// its range from it and replay starts at its NextTick. A still supplies
	// the object geometry; neither backup is read.
	Image ImageSource
	// Prelude, when non-nil, replays before the local log and supersedes the
	// overlapping local span (see RecordSource). Requires Log.
	Prelude RecordSource
	// Tail, when non-nil, replays after the local log through the same gated
	// per-shard workers: its records extend the durable history past the
	// point where the local log ends (the cluster's roll-forward past a
	// node's crash point, fed from the cluster's logged-message store).
	// Records the local log already holds are skipped — whole ticks below
	// the log's last tick, and the first LastTickRecords records at the last
	// tick itself, so a final tick the crash tore mid-append is completed
	// record-by-record. That skip contract requires the tail stream to carry
	// each tick's records in exactly the order the local log does (true when
	// both were written from the same dispatch sequence). Requires Log.
	Tail RecordSource
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
	// DecodeWait is how long the worker then stood waiting for a decoder to
	// finish the record it was due to apply next: large against Replay means
	// the replay stage is decode-bound, near zero that it is apply-bound.
	DecodeWait time.Duration
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
	// before any skip (records below the image floor or superseded by the
	// Prelude included): it marks where the local WAL's durable history
	// ends, which peer-RAM recovery needs to know to heal the log gaplessly.
	LastLogTick uint64
	// SawLogTick reports whether the Log held any record at all.
	SawLogTick bool
	// LastTickRecords is the number of records the local Log holds at
	// LastLogTick. A crash can tear the log's final tick (e.g. a range
	// install flushed without the tick's update batch that follows it);
	// comparing this count against a peer's complete copy of the same tick
	// detects the tear.
	LastTickRecords int
	// DecodeBusy and ApplyBusy are the replay stage's two kinds of work,
	// each summed over the goroutines doing it: decoding split records into
	// buckets, and applying buckets and whole records to the slab.
	DecodeBusy, ApplyBusy time.Duration
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

// evenRanges splits n objects into at most shards equal contiguous ranges.
func evenRanges(n, shards int) []ShardRange {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if shards < 1 { // n == 0
		return []ShardRange{{0, 0}}
	}
	per := (n + shards - 1) / shards
	var ranges []ShardRange
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		ranges = append(ranges, ShardRange{lo, hi})
	}
	return ranges
}

// restoreChunk is the slice grain of a shard's vectored image read: the
// shard's region is read in one ReadRunVec of restoreChunk-sized slices
// (preadv on Linux), so even a multi-hundred-MB shard restores in a handful
// of syscalls.
const restoreChunk = 1 << 20

// batchesPerShard bounds the replay stage: at most batchesPerShard × shards
// records are in flight between the log reader and their last applier, so
// the reader can run that far ahead of a slow shard (or a shard still gated
// on its restore) and no further, and the decoded buckets held in memory are
// capped. The depth is there to absorb scheduling: a record is ~20 µs of
// work per stage, so with only a few in flight every stage blocks on its
// neighbour once per record; measured on BenchmarkReplayPipeline, 16 per
// shard replays a third faster than 4 at one shard and a tenth faster at
// two, and 32 adds nothing.
const batchesPerShard = 16

// batch is one log record in flight from the reader to the appliers. It is
// taken from a free list, reused, and returned by the last applier done
// with it, so the steady state allocates nothing per record.
type batch struct {
	tick    uint64
	payload []byte // the whole record, as read
	// split marks a record the decoders bucket, updates being its
	// update-batch bytes; any other record travels whole.
	split   bool
	updates []byte
	// parts[s] is shard s's bucket of a split record and err its decode
	// error, both written by one decoder before it calls ready.Done.
	parts [][]wal.Update
	err   error
	ready sync.WaitGroup
	// left counts the appliers still to finish with the batch.
	left atomic.Int32
}

// RecoverParallel restores the newest complete checkpoint image with one
// concurrent reader per shard, then replays the logical log with per-shard
// workers fed in log order by a single log reader, update batches decoded
// once on the way into one bucket per shard. Shard s's worker applies
// nothing until shard s's restore watermark covers its whole range, but is
// not gated on any other shard — replay overlaps the remaining restores.
func RecoverParallel(opts ParallelOptions) (ParallelResult, error) {
	start := time.Now()
	var res ParallelResult
	res.BackupIndex = -1

	objects, objSize := opts.A.Objects(), opts.A.ObjSize()
	if len(opts.Slab) != objects*objSize {
		return res, fmt.Errorf("recovery: slab %d bytes, image holds %d", len(opts.Slab), objects*objSize)
	}
	ranges := opts.Ranges
	if len(ranges) == 0 {
		ranges = evenRanges(objects, opts.Shards)
	}
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
	if opts.Split != nil && (opts.ApplyUpdates == nil || len(opts.CellBounds) != len(ranges)) {
		return res, fmt.Errorf("recovery: Split needs ApplyUpdates and one cell bound per shard (%d bounds, %d shards)",
			len(opts.CellBounds), len(ranges))
	}
	if opts.Prelude != nil && opts.Log == nil {
		return res, fmt.Errorf("recovery: Prelude set without Log")
	}
	if opts.Tail != nil && opts.Log == nil {
		return res, fmt.Errorf("recovery: Tail set without Log")
	}

	var src *disk.Backup
	idx := -1
	from := uint64(0)
	if opts.Image != nil {
		epoch, next, err := opts.Image.Info()
		if err != nil {
			return res, err
		}
		res.Epoch = epoch
		from = next
		if next > 0 {
			res.Restored = true
			res.AsOfTick = next - 1
			res.NextTick = next
		}
	} else {
		var h disk.Header
		var err error
		idx, h, err = ChooseBackup(opts.A, opts.B)
		if err != nil {
			return res, err
		}
		res.BackupIndex = idx
		src = opts.A
		if idx == 1 {
			src = opts.B
		}
		if idx >= 0 {
			res.Restored = true
			res.Epoch = h.Epoch
			res.AsOfTick = h.AsOfTick
			res.NextTick = h.AsOfTick + 1
			from = h.AsOfTick + 1
		}
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
			region := opts.Slab[r.Lo*objSize : r.Hi*objSize]
			if opts.Image != nil {
				if len(region) > 0 {
					if err := opts.Image.ReadRange(r.Lo, r.Hi, region); err != nil {
						shardErrs[s] = fmt.Errorf("recovery: restore shard %d [%d,%d): %w", s, r.Lo, r.Hi, err)
					}
				}
			} else if idx < 0 {
				for i := range region {
					region[i] = 0
				}
			} else if len(region) > 0 {
				var bufs [][]byte
				for off := 0; off < len(region); off += restoreChunk {
					end := off + restoreChunk
					if end > len(region) {
						end = len(region)
					}
					bufs = append(bufs, region[off:end])
				}
				if err := src.ReadRunVec(r.Lo, bufs); err != nil {
					shardErrs[s] = fmt.Errorf("recovery: restore shard %d [%d,%d): %w", s, r.Lo, r.Hi, err)
				}
			}
			restoredAt[s] = time.Now()
			res.Shards[s].Restore = restoredAt[s].Sub(t0)
		}(s, ranges[s])
	}

	// Replay stage: reader → decoders → appliers. The single reader fixes
	// the order: it pushes every record onto every shard's feed, in log
	// order, and queues the ones Split accepts for the decoders. A decoder
	// parses a record once, straight into one bucket per shard; shard s's
	// applier — the only goroutine that writes shard s's slab range — takes
	// records off its feed in log order, waits for the record's decoder and
	// applies its own bucket unfiltered. Records Split declines (the reader
	// cannot split an opaque payload: an action is re-executed whole on
	// every shard, an install copied by range) reach Apply through the same
	// feeds, so their place in each shard's order is the log's.
	var lastTick uint64
	sawTick := false
	var readerErr error
	var logBytes int64 // bytes of the local log read
	logSkipped := 0    // stale sealed segments left unopened
	if opts.Log != nil {
		// No channel below ever blocks its sender: each can hold every batch
		// there is. The reader's only wait is for a free batch.
		bound := batchesPerShard * n
		free := make(chan *batch, bound)
		decode := make(chan *batch, bound)
		feeds := make([]chan *batch, n)
		for s := range feeds {
			feeds[s] = make(chan *batch, bound)
		}
		decodeBusy := make([]time.Duration, n)
		applyBusy := make([]time.Duration, n)
		var decoders, appliers sync.WaitGroup
		for d := 0; d < n; d++ { // one decoder per shard: as wide as the appliers
			decoders.Add(1)
			go func(d int) {
				defer decoders.Done()
				var busy time.Duration
				for b := range decode {
					t0 := time.Now()
					for s := range b.parts {
						b.parts[s] = b.parts[s][:0]
					}
					if err := wal.SplitUpdates(b.parts, opts.CellBounds, b.updates); err != nil {
						b.err = fmt.Errorf("recovery: replay: record at tick %d: %w", b.tick, err)
					}
					busy += time.Since(t0)
					b.ready.Done()
				}
				decodeBusy[d] = busy
			}(d)
		}
		for s := range feeds {
			appliers.Add(1)
			go func(s int) {
				// The per-record counters stay on this goroutine's stack
				// until it is done: the shards' slots sit side by side.
				var busy, decodeWait time.Duration
				var applied int64
				var records int
				var first time.Time
				w0 := time.Now()
				<-gate[s]
				g0 := time.Now()
				err := shardErrs[s] // an unrestored shard must not replay
				for b := range feeds[s] {
					t0 := time.Now()
					if first.IsZero() && err == nil {
						first = t0
					}
					t1 := t0
					if b.split {
						// Always wait, even after an error: the batch must not go
						// back to the free list while a decoder still writes it.
						b.ready.Wait()
						t1 = time.Now()
						decodeWait += t1.Sub(t0)
					}
					switch {
					case err != nil: // drain so the reader never blocks
					case b.err != nil:
						// Every shard meets the undecodable record at the same
						// place in its feed and applies nothing from there on.
						err = b.err
					case b.split:
						opts.ApplyUpdates(s, b.tick, b.parts[s])
						applied += int64(len(b.parts[s]))
						records++
					default:
						var nUpd int64
						nUpd, err = opts.Apply(s, b.tick, b.payload)
						applied += nUpd
						if err != nil {
							err = fmt.Errorf("recovery: replay shard %d: %w", s, err)
						} else {
							records++
						}
					}
					busy += time.Since(t1)
					if b.left.Add(-1) == 0 {
						free <- b
					}
				}
				replayDone[s] = time.Now()
				st := &res.Shards[s]
				st.Wait, st.DecodeWait, st.Replay, st.Records = g0.Sub(w0), decodeWait, replayDone[s].Sub(g0), records
				shardErrs[s], replayFirst[s], updates[s], applyBusy[s] = err, first, applied, busy
				appliers.Done()
			}(s)
		}

		allocated := 0
		fan := func(tick uint64, payload []byte) {
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
					b = &batch{parts: make([][]wal.Update, n)}
				} else {
					b = <-free
				}
			}
			b.tick, b.payload, b.split, b.err = tick, payload, false, nil
			if opts.Split != nil {
				b.updates, b.split = opts.Split(payload)
			}
			b.left.Store(int32(n))
			if b.split {
				b.ready.Add(1)
				decode <- b
			}
			for s := range feeds {
				feeds[s] <- b
			}
		}
		// Prelude first: its records are authoritative for every tick they
		// carry, so the local log's copies of those ticks are skipped below.
		var preludeLast uint64
		sawPrelude := false
		if opts.Prelude != nil {
			for {
				tick, payload, ok, err := opts.Prelude.Next()
				if err != nil {
					readerErr = fmt.Errorf("recovery: prelude: %w", err)
					break
				}
				if !ok {
					break
				}
				if tick < from {
					continue // covered by the image
				}
				sawPrelude, preludeLast = true, tick
				fan(tick, payload)
			}
		}
		if readerErr == nil {
			// The reader starts at the first segment that can hold a record
			// at or above from; sealed segments before it are never opened.
			end, err := scanLog(opts.Log, from, func(tick uint64, payload []byte) {
				if tick < from {
					return
				}
				if sawPrelude && tick <= preludeLast {
					return // the prelude already carried this tick
				}
				fan(tick, payload)
			})
			logBytes, logSkipped = end.bytes, end.skipped
			// The log's last tick is counted before any skip. When it is at or
			// above from, every record carrying it was in a segment just read.
			// Otherwise (a crash right after a checkpoint rotated the log) it
			// may sit in a skipped segment, and only an unskipped read tells.
			if err == nil && end.skipped > 0 && !(end.saw && end.lastTick >= from) {
				end, err = scanLog(opts.Log, 0, func(uint64, []byte) {})
				logBytes += end.bytes
			}
			res.LastLogTick, res.SawLogTick, res.LastTickRecords = end.lastTick, end.saw, end.lastRecords
			if err != nil {
				readerErr = fmt.Errorf("recovery: replay: %w", err)
			}
		}
		// Tail last: it extends history past the local log, skipping the span
		// the log is authoritative for (whole ticks below its last tick, and
		// the records of the last tick itself that the log holds — a torn
		// final tick resumes mid-tick at the first missing record).
		if readerErr == nil && opts.Tail != nil {
			skip := res.LastTickRecords
			for {
				tick, payload, ok, err := opts.Tail.Next()
				if err != nil {
					readerErr = fmt.Errorf("recovery: tail: %w", err)
					break
				}
				if !ok {
					break
				}
				if tick < from {
					continue // covered by the image
				}
				if res.SawLogTick {
					if tick < res.LastLogTick {
						continue
					}
					if tick == res.LastLogTick && skip > 0 {
						skip--
						continue
					}
				}
				fan(tick, payload)
			}
		}
		close(decode)
		for s := range feeds {
			close(feeds[s])
		}
		appliers.Wait()
		decoders.Wait()
		res.BatchesInFlightMax = allocated
		for s := range feeds {
			res.DecodeBusy += decodeBusy[s]
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
				telemetry.Int("decode_ns", int64(res.DecodeBusy)),
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

// scanLog reads log from the first segment that can hold tick from and
// hands every record to each, in log order.
func scanLog(log *wal.Log, from uint64, each func(tick uint64, payload []byte)) (end logEnd, err error) {
	r, err := log.NewReader(from)
	if err != nil {
		return end, err
	}
	defer func() {
		end.bytes, end.skipped = r.BytesRead(), r.Skipped()
		r.Close() //nolint:errcheck // read-only handles
	}()
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
		each(tick, payload)
	}
}
