// Sharded recovery: the paper's ΔTrecovery = ΔTrestore + ΔTreplay, with the
// two stages fused in each shard. RecoverParallel partitions the backup image
// by the caller's shard geometry and reads the logical log in windows; every
// shard replays every window into its own object range and restores that
// range as it goes, so the shards run concurrently and the caller can restore
// a stretch of the slab and bring it to the crash tick while it is still in
// cache (see ParallelOptions.Replay).
package recovery

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ShardRange is one shard's contiguous object range [Lo, Hi).
type ShardRange struct{ Lo, Hi int }

// Record is one log record of a replay window.
type Record struct {
	Tick    uint64
	Payload []byte
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
	// Replay applies one window of log records, consecutive in log order, to
	// shard's object range, and returns how many of the records it applied
	// and the updates they wrote. It restores the range through restore as
	// it goes: no record may write an object restore has not covered, and
	// when Replay returns without error restore must cover the whole range.
	// Every shard gets every window, in order, on one goroutine at a time;
	// the shards of a window run concurrently, and the next window waits for
	// all of them. An error stops replay, so Replay must apply every record
	// before the one it refuses and none after it, for the shards to stop at
	// the same record. The payloads are read-only and valid until Replay
	// returns. Required when Log is set.
	Replay func(shard int, window []Record, restore *Restorer) (records int, updates int64, err error)
}

// Restorer brings one shard's range of the chosen image into the slab, in
// object order: everything below its watermark is restored, nothing above
// it. With no image to restore it zeroes the range instead.
type Restorer struct {
	src   *disk.Backup // nil: no image
	p     disk.Populated
	slab  []byte
	size  int // object bytes
	shard int
	mark  int // the watermark: [Lo, mark) is restored
	hi    int
	slow  bool // a read ran below slowRestore
	busy  time.Duration
	err   error
}

// To restores the shard's objects below obj, clamped to its range, that are
// not restored yet — all the rest of the range once the device has proved
// slow (see slowRestore). An error is sticky.
func (r *Restorer) To(obj int) error {
	if obj <= r.mark || r.err != nil {
		return r.err
	}
	if obj = min(obj, r.hi); r.slow {
		obj = r.hi
	}
	t0 := time.Now()
	if r.src == nil {
		clear(r.slab[r.mark*r.size : obj*r.size])
	} else if err := readImage(r.src, r.p, r.slab, r.mark, obj); err != nil {
		r.err = fmt.Errorf("recovery: restore shard %d [%d,%d): %w", r.shard, r.mark, obj, err)
	}
	d := time.Since(t0)
	r.slow = r.slow || float64((obj-r.mark)*r.size) < slowRestore*d.Seconds()
	r.mark = obj
	r.busy += d
	return r.err
}

// Restored returns the watermark: the objects below it are restored.
func (r *Restorer) Restored() int { return r.mark }

// ShardTiming is one shard's stage breakdown.
type ShardTiming struct {
	Shard  int
	Lo, Hi int
	// Restore is the time the shard spent reading its image (or zeroing).
	Restore time.Duration
	// Replay is the time the shard spent in Replay, its restores excluded.
	Replay time.Duration
	// Records is the number of log records the shard applied.
	Records int
}

// ParallelResult is a Result plus the pipeline's per-shard and per-stage
// timings. Each stage is timed as the time spent in it: RestoreDuration is
// the most any shard spent restoring, and ReplayDuration the log reader's
// time (ReadDuration) plus the most any shard spent replaying. At one shard
// they add up to TotalDuration less the image choice; across shards, one
// shard's restore runs beside another's replay, and Overlap says how much
// that saved.
type ParallelResult struct {
	Result
	// TotalDuration is the pipeline wall time.
	TotalDuration time.Duration
	// Shards holds one entry per shard range.
	Shards []ShardTiming
	// ApplyBusy is the replay stage's work, summed over the shards: the time
	// spent inside Replay, restores excluded.
	ApplyBusy time.Duration
	// Windows is the number of windows the replay read the log in (one per
	// windowBytes of payload, and one for the rest).
	Windows int
	// ReadDuration is the log reader's own time, waits on the shards
	// excluded: the serial part of ReplayDuration.
	ReadDuration time.Duration
}

// Overlap returns the recovery time saved by running the stages side by
// side compared to running the measured stages back to back. It is never
// negative: 0 means they ran one after the other, as at one shard.
func (r *ParallelResult) Overlap() time.Duration {
	return max(0, r.RestoreDuration+r.ReplayDuration-r.TotalDuration)
}

// restoreChunk is the slice grain of a restore's vectored image reads: each
// run of populated words is read in one ReadRunVec of restoreChunk-sized
// slices (preadv on Linux), so even a multi-hundred-MB shard restores in a
// handful of syscalls.
const restoreChunk = 1 << 20

// slowRestore is the read rate, in bytes a second, below which a Restorer
// stops reading a stretch at a time and reads the rest of its range at once.
// Page by page pays where the replay is the cost, so that it finds each page
// in cache; on a device that slow the read is the cost, and a throttled one
// loses a sleep's overshoot (about 1 ms on a 2-core VM) per read, 16 ms
// over a 4 MB image read page by page at one shard.
const slowRestore = 200 << 20

// windowBytes is the payload a replay window holds: the reader hands the
// shards a window once its records reach that many bytes, or at the end of
// the log. A window is the span over which a shard can order its work by
// place rather than by record, so it should hold a checkpoint interval's
// tail whole (measured at the crash-recover shape, windows of 6 MB saved a
// tenth of the replay time that one window of the whole tail saved); the
// price is that a window's chunks stay held until every shard is done.
const windowBytes = 64 << 20

// windowBudget is windowBytes; a test lowers it to force several windows.
var windowBudget = windowBytes

// RecoverParallel restores the newest complete checkpoint image and replays
// the logical log with one goroutine per shard. A single reader fixes the
// order: it reads the log into windows and hands each to every shard at
// once; shard s — the only goroutine that writes shard s's range of the
// slab — restores the range and applies the window to it through Replay. A
// shard never waits for another shard's restore.
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
	if opts.Log != nil && opts.Replay == nil {
		return res, fmt.Errorf("recovery: Log set without Replay")
	}

	idx, h, maps, err := chooseBackup(opts.A, opts.B)
	if err != nil {
		return res, err
	}
	res.BackupIndex, res.Images = idx, maps
	from := uint64(0)
	var src *disk.Backup // nil: no image, so the restorers zero
	if idx >= 0 {
		src = [2]*disk.Backup{opts.A, opts.B}[idx]
		res.Restored = true
		res.Epoch = h.Epoch
		res.AsOfTick = h.AsOfTick
		res.NextTick = h.AsOfTick + 1
		from = h.AsOfTick + 1
	}

	n := len(ranges)
	res.Shards = make([]ShardTiming, n)
	restorers := make([]Restorer, n)
	for s, r := range ranges {
		res.Shards[s] = ShardTiming{Shard: s, Lo: r.Lo, Hi: r.Hi}
		restorers[s] = Restorer{src: src, p: maps[max(idx, 0)], slab: opts.Slab, size: objSize, shard: s, mark: r.Lo, hi: r.Hi}
	}
	replay := opts.Replay
	if replay == nil { // the image only
		replay = func(_ int, _ []Record, r *Restorer) (int, int64, error) { return 0, 0, r.To(r.hi) }
	}

	// Per-shard slots, each written by one shard's goroutine and read only
	// after that goroutine is joined.
	shardErrs := make([]error, n)
	updates := make([]int64, n)
	var window []Record
	var windowLen int          // payload bytes in window
	var inShards time.Duration // wall time the reader waited on the shards
	failed := false
	// run hands the window to every shard and waits for all of them.
	run := func() {
		t0 := time.Now()
		var wg sync.WaitGroup
		for s := range ranges {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				st, rs := &res.Shards[s], &restorers[s]
				t0, r0 := time.Now(), rs.busy
				k, u, err := replay(s, window, rs)
				st.Replay += time.Since(t0) - (rs.busy - r0)
				st.Records += k
				updates[s] += u
				if rs.err != nil {
					shardErrs[s] = rs.err
				} else if err != nil {
					shardErrs[s] = fmt.Errorf("recovery: replay shard %d: %w", s, err)
				}
			}(s)
		}
		wg.Wait()
		inShards += time.Since(t0)
		res.Windows++
		for s := range shardErrs {
			failed = failed || shardErrs[s] != nil
		}
		clear(window)
		window, windowLen = window[:0], 0
	}

	var lastTick uint64
	sawTick := false
	var readerErr error
	var logBytes int64 // bytes of the log read
	logSkipped := 0    // stale sealed segments left unopened
	readStart := time.Now()
	if opts.Log != nil {
		// The reader owns the mappings the payloads alias. Once a window's
		// shards are done, it may unmap what holds only the window's records;
		// it is closed only once the last window is done. It starts at the
		// first segment that can hold a record at or above from: sealed
		// segments before it are never opened.
		r, err := opts.Log.NewReader(from)
		for err == nil && !failed {
			var tick uint64
			var payload []byte
			if tick, payload, err = r.Next(); err != nil || tick < from {
				continue
			}
			if !sawTick || tick != lastTick {
				res.ReplayedTicks++
			}
			sawTick, lastTick = true, tick
			window = append(window, Record{tick, payload})
			if windowLen += len(payload); windowLen >= windowBudget {
				run()
				r.Release(r.Records())
			}
		}
		if err != nil && err != io.EOF {
			readerErr = fmt.Errorf("recovery: replay: %w", err)
		}
		// The last window, and the only one of a log shorter than the budget
		// or empty: its walk restores what no window has.
		if !failed && (len(window) > 0 || res.Windows == 0) {
			run()
		}
		if r != nil {
			logBytes, logSkipped = r.BytesRead(), r.Skipped()
			r.Close() //nolint:errcheck // read-only handles
		}
	} else {
		run()
	}
	res.ReadDuration = time.Since(readStart) - inShards

	// All goroutines are joined: the per-shard slots are safe to read.
	var replayMax, replayMin time.Duration
	for s := range ranges {
		st := &res.Shards[s]
		st.Restore = restorers[s].busy
		res.RestoreDuration = max(res.RestoreDuration, st.Restore)
		replayMax = max(replayMax, st.Replay)
		if s == 0 || st.Replay < replayMin {
			replayMin = st.Replay
		}
		res.ApplyBusy += st.Replay
		res.ReplayedUpdates += updates[s]
	}
	if res.ReplayedTicks > 0 {
		res.ReplayDuration = res.ReadDuration + replayMax
	}
	res.TotalDuration = time.Since(start)
	if sawTick {
		res.NextTick = lastTick + 1
	}
	// Stage spans for the trace ring: each stage's span is as long as the
	// time spent in it, the restore's from the pipeline's start and the
	// replay's up to its end.
	if telemetry.Enabled() {
		restored := int64(0)
		if res.Restored {
			restored = 1
		}
		end := start.Add(res.TotalDuration)
		telemetry.RecordSpan("recovery/restore", start, start.Add(res.RestoreDuration),
			telemetry.Int("shards", int64(len(ranges))),
			telemetry.Int("restored", restored))
		if res.ReplayDuration > 0 {
			telemetry.RecordSpan("recovery/replay", end.Add(-res.ReplayDuration), end,
				telemetry.Int("shards", int64(len(ranges))),
				telemetry.Int("replayed_ticks", int64(res.ReplayedTicks)),
				telemetry.Int("replayed_updates", res.ReplayedUpdates),
				telemetry.Int("log_bytes", logBytes),
				telemetry.Int("segments_skipped", int64(logSkipped)),
				telemetry.Int("apply_ns", int64(res.ApplyBusy)),
				telemetry.Int("read_ns", int64(res.ReadDuration)),
				telemetry.Int("shard_replay_max_ns", int64(replayMax)),
				telemetry.Int("shard_replay_min_ns", int64(replayMin)),
				telemetry.Int("windows", int64(res.Windows)))
		}
		telemetry.RecordSpan("recovery/pipeline", start, end,
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
