package engine

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Table is the state geometry. CellSize must be 4.
	Table gamestate.Table
	// Dir is the storage directory (two backup images + wal/ subdirectory).
	Dir string
	// Mode selects the recovery method.
	Mode Mode
	// DiskBytesPerSec throttles backup I/O to emulate the paper's dedicated
	// 60 MB/s recovery disk. 0 means unthrottled.
	DiskBytesPerSec float64
	// SyncEveryTick fsyncs the logical log at every tick, making each tick
	// durable as soon as it is applied. When false, the OS decides; a crash
	// may lose the most recent ticks (but never corrupt the log).
	SyncEveryTick bool
	// InMemory uses in-memory backup devices and disables the logical log:
	// for benchmarks and tests that exercise only the checkpoint path.
	InMemory bool
	// KeepTickStats retains per-tick timing series in Stats (validation
	// harness); aggregates are always kept.
	KeepTickStats bool
	// Shards partitions the object space into contiguous ranges, each with
	// its own slice of the dirty bitmaps and pre-image side buffer, its own
	// stripe locks, flush cursor and checkpoint flusher: checkpoints flush,
	// and recovery restores and replays, all shards concurrently. A tick is
	// applied by its one mutator goroutine whatever the count (see
	// applyBucket). 0 uses GOMAXPROCS; shards are equal runs of 64-object
	// bitmap words, and small states fold to fewer shards (Shards reports
	// the effective count). 1 reproduces the paper's single-writer engine
	// exactly.
	Shards int
	// DeviceFactory overrides how backup devices are opened (fault
	// injection in tests). Nil uses regular files.
	DeviceFactory func(path string) (disk.Device, error)
}

// TickTiming is the per-tick instrumentation used by the Section 6
// validation: how long applying the updates took and how long the
// checkpointer's synchronous work stretched the tick.
type TickTiming struct {
	Apply time.Duration
	Pause time.Duration
}

// Stats aggregates engine activity.
type Stats struct {
	Ticks          uint64
	UpdatesApplied int64
	ApplyTotal     time.Duration
	PauseTotal     time.Duration
	Checkpoints    []CheckpointInfo
	TickTimings    []TickTiming // only with KeepTickStats
}

// Engine is the durable game-state store: an in-memory slab, a logical log,
// and an asynchronous checkpointer.
type Engine struct {
	opts    Options
	store   *Store
	cp      checkpointer
	log     *wal.Log
	walDir  string
	plan    shardPlan
	backups [2]*disk.Backup
	devs    [2]disk.Device // the backups' devices, closed by Close

	// tickMu serializes the mutator paths (ApplyTick, ApplyTickEnvelopes,
	// IngestReplicated, InstallRange) against migration's SnapshotRange, so
	// the range it copies never holds a half-applied tick. Uncontended
	// outside a migration.
	tickMu  sync.Mutex
	standby bool // accepts only IngestReplicated until Promote

	// replMu guards the tick-commit subscriber list; hasSubs lets the tick
	// path skip it entirely when no shipper is attached.
	replMu  sync.Mutex
	subs    []*TickSub
	hasSubs atomic.Bool

	tick      uint64
	encBuf    []byte
	ingestBuf []wal.Update
	// bucket and off are bucketBatch's reused counting-sort buffers: the
	// batch's updates in bitmap-word order, and the per-word counts.
	bucket []wal.Update
	off    []int32
	// LogTickEnvelopes' own scratch: it runs on the cluster's dispatching
	// goroutine, beside the tick being applied.
	logBucket []wal.Update
	logOff    []int32
	logRecs   [][]byte
	stats     Stats
	prevAsOf  uint64
	havePrev  bool
	recovered recovery.Result
	closed    bool
}

// Open creates or reopens an engine in opts.Dir. If the directory holds a
// previous incarnation's state, Open performs crash recovery before
// returning, as RecoverFrom does; the outcome is available via Recovery().
func Open(opts Options) (*Engine, error) {
	e, _, err := RecoverFrom(opts)
	return e, err
}

// RecoverFrom opens an engine in opts.Dir like Open and returns the
// recovery pipeline's per-shard and per-stage timing breakdown. Crash
// recovery reads the logical log in windows and hands each to every shard:
// a shard indexes the window's runs on its own pages, then walks its pages
// in order, restoring each from the newest complete backup image with
// vectored reads and applying every record's run on it (see replayer and
// recovery.RecoverParallel). At one shard the stages add up to the paper's
// ΔTrestore + ΔTreplay sum. Every record kind is data, applied by range, so
// the recovered state is the same at any shard count.
func RecoverFrom(opts Options) (*Engine, recovery.ParallelResult, error) {
	if err := opts.Table.Validate(); err != nil {
		return nil, recovery.ParallelResult{}, err
	}
	var pres recovery.ParallelResult
	switch opts.Mode {
	case ModeNone, ModeNaiveSnapshot, ModeCopyOnUpdate, ModeAtomicCopy, ModeDribble:
	default:
		return nil, pres, fmt.Errorf("engine: unknown mode %d", int(opts.Mode))
	}
	store, err := NewStore(opts.Table)
	if err != nil {
		return nil, pres, err
	}
	e := &Engine{
		opts: opts, store: store, plan: makeShardPlan(store.NumObjects(), opts.Shards),
		off: make([]int32, (store.NumObjects()+63)/64+2),
	}
	opened := false
	defer func() {
		if !opened { // every goroutine of a failed recovery is joined
			store.release()
			e.closeDevices() //nolint:errcheck // the open error is the one to report
		}
	}()
	telDegraded.Set(0)

	devs := &e.devs
	if opts.InMemory {
		devs[0], devs[1] = disk.NewMem(), disk.NewMem()
	} else {
		if opts.Dir == "" {
			return nil, pres, errors.New("engine: Dir required unless InMemory")
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, pres, fmt.Errorf("engine: %w", err)
		}
		for i := range devs {
			d, err := openBackupDevice(opts, i)
			if err != nil {
				return nil, pres, err
			}
			devs[i] = d
		}
	}
	if opts.DiskBytesPerSec > 0 {
		devs[0] = disk.NewThrottle(devs[0], opts.DiskBytesPerSec)
		devs[1] = disk.NewThrottle(devs[1], opts.DiskBytesPerSec)
	}
	for i, d := range devs {
		b, err := disk.NewBackup(d, store.NumObjects(), store.ObjSize())
		if err != nil {
			return nil, pres, err
		}
		e.backups[i] = b
	}

	startEpoch := uint64(0)
	firstBackup := 0
	if opts.InMemory {
		e.recovered = recovery.Result{BackupIndex: -1}
	} else {
		e.walDir = filepath.Join(opts.Dir, "wal")
		log, err := wal.Open(e.walDir)
		if err != nil {
			return nil, pres, err
		}
		e.log = log
		// Range-install records are logged at the tick *about to run* and
		// must never count as evidence that tick ran (InstallRange), so the
		// recovered next tick is derived from non-install records only —
		// the generic recovery layer's lastTick+1 would overshoot by one
		// when an install is the final record (crash right after a
		// migration cutover, before its first tick). ranNext[s] is one past
		// the last tick shard s's replay worker saw a non-install record
		// for; 0 means none.
		//
		// The pipeline is partitioned exactly like the engine: one
		// goroutine per shard restores and replays its plan range of the
		// slab, applying every record to that range alone.
		ranges := e.plan.ranges()
		reps := e.replayers(ranges)
		ranNext := make([]uint64, len(ranges))
		popts := recovery.ParallelOptions{
			A: e.backups[0], B: e.backups[1], Slab: store.Slab(), Log: log,
			Ranges: ranges,
			Replay: func(shard int, window []recovery.Record, restore *recovery.Restorer) (int, int64, error) {
				k, n, err := reps[shard].replay(window, restore)
				for _, rec := range window[:k] {
					if len(rec.Payload) > 0 && rec.Payload[0] != recInstall {
						ranNext[shard] = rec.Tick + 1
					}
				}
				return k, n, err
			},
		}
		pres, err = recovery.RecoverParallel(popts)
		if err != nil {
			log.Close()
			return nil, pres, err
		}
		next := uint64(0) // first tick the restored image does not cover
		if pres.Restored {
			next = pres.AsOfTick + 1
		}
		for _, n := range ranNext {
			if n > next {
				next = n
			}
		}
		pres.NextTick = next
		e.recovered = pres.Result
		e.tick = next
		startEpoch = pres.Epoch
		if pres.Restored {
			// Write the next image over the stale backup.
			firstBackup = 1 - pres.BackupIndex
			e.prevAsOf = pres.AsOfTick
			e.havePrev = true
		}
	}

	var seeds [2]imageSeed
	if opts.Mode != ModeNone {
		seeds = e.seedImages(e.backups)
	}
	e.cp = newCheckpointer(opts.Mode, store, e.backups, startEpoch, firstBackup, e.plan, seeds, e.log)
	opened = true
	return e, pres, nil
}

// seedImages returns what each backup's image holds as far as the opening
// engine knows, to start the backup's dirty and populated maps from: the
// words the restored image's map covers, the words the backup's own header
// map covers, and every other word where the recovered state holds a
// non-zero byte. A header's map counts whether the image is complete or
// not, since both headers of a flush carry the map that bounds the file
// however far the flush got. A backup with no valid header covers every
// word unless it is blank, when its own map is empty (Blank's read is
// skipped where the restored image covers every word anyway). The scan for
// non-zero words skips the words both seeds already cover, and the state is
// all zeros when nothing was restored or replayed.
func (e *Engine) seedImages(backups [2]*disk.Backup) [2]imageSeed {
	res := e.recovered
	restored := func(w int) bool { return res.Restored && res.Images[res.BackupIndex].Has(w) }
	whole := res.Restored && res.Images[res.BackupIndex].Full()
	n, sz, objs := disk.Words(e.store.NumObjects()), e.store.ObjSize(), e.store.NumObjects()
	var seeds [2]imageSeed
	for i, b := range backups {
		seeds[i].words = make([]uint64, (n+63)/64)
		seeds[i].blank = !whole && res.Images[i].Full() && b.Blank()
	}
	zero := !res.Restored && res.ReplayedTicks == 0
	for w := 0; w < n; w++ {
		var in [2]bool
		for i := range seeds {
			in[i] = restored(w) || !seeds[i].blank && res.Images[i].Has(w)
		}
		if !(in[0] && in[1]) && !zero && !allZero(e.store.slab[(w<<6)*sz:min((w+1)<<6, objs)*sz]) {
			in = [2]bool{true, true}
		}
		for i := range seeds {
			if in[i] {
				seeds[i].words[w>>6] |= 1 << (uint(w) & 63)
			}
		}
	}
	return seeds
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Shards returns the effective shard count of the engine's partition.
func (e *Engine) Shards() int { return e.plan.count() }

// Recovery returns the outcome of the recovery Open or RecoverFrom performed.
func (e *Engine) Recovery() recovery.Result { return e.recovered }

// Store exposes the in-memory state for reads.
func (e *Engine) Store() *Store { return e.store }

// NextTick returns the tick the next ApplyTick call will be logged as.
func (e *Engine) NextTick() uint64 { return e.tick }

// Table returns the state geometry the engine was opened with.
func (e *Engine) Table() gamestate.Table { return e.opts.Table }

// ApplyTick logs and applies one tick's update batch on the calling
// goroutine, then runs the end-of-tick checkpoint management. It is the
// discrete-event simulation loop's integration point: call it exactly once
// per game tick, from one goroutine. The batch is sorted once, by bitmap
// word (bucketBatch), before it is logged: the log holds that order as runs
// and the apply walks the same bucket.
func (e *Engine) ApplyTick(updates []wal.Update) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.bucket = e.bucketBatch(e.bucket[:0], updates, e.off)
	return e.commit(false,
		func() []byte {
			e.encBuf = wal.EncodeRuns(append(e.encBuf[:0], recUpdateRuns), e.bucket)
			return e.encBuf
		},
		func() (int64, error) { return e.applyBucket(e.bucket), nil })
}

// ApplyTickParallel is ApplyTick: the per-shard apply pool it once selected
// lost to the inline bucketed apply on the hosts measured (DESIGN.md,
// "Sharding layout"). The name stays only because the repository benchmark
// (benchmark/) calls it; everything else calls ApplyTick.
func (e *Engine) ApplyTickParallel(updates []wal.Update) error { return e.ApplyTick(updates) }

// guard is the precondition every mutation of the engine shares: open, on
// the right side of Promote (standby names the side the caller serves), and
// with a healthy checkpoint writer.
func (e *Engine) guard(standby bool) error {
	switch {
	case e.closed:
		return errors.New("engine: closed")
	case standby && !e.standby:
		return errors.New("engine: IngestReplicated on a non-standby engine")
	case !standby && e.standby:
		return errors.New("engine: standby engines accept only replicated ticks until Promote")
	}
	if err := e.cp.err(); err != nil {
		return fmt.Errorf("engine: checkpoint writer failed: %w", err)
	}
	return nil
}

// commit runs one tick through the engine's only durability ordering (see
// DESIGN.md, "Tick commit"): guards → append → fsync → apply → endTick →
// stats/telemetry → advance → notify. Every entry point — update batches,
// envelope ticks, replicated ticks — supplies just what is its own: record
// returns the tick's encoded log record body (kind tag included; called only
// on a durable engine), or is nil for a tick already logged
// (ApplyTickEnvelopes), which appends and syncs nothing; apply mutates the
// slab through the checkpointer and returns the number of cell writes. The
// caller holds tickMu. An error means the tick did not commit: the tick
// counter has not advanced and no subscriber was told.
func (e *Engine) commit(standby bool, record func() []byte, apply func() (int64, error)) error {
	if err := e.guard(standby); err != nil {
		return err
	}
	// Logical logging first: a tick is replayable before its effects are in
	// volatile memory only.
	if e.log != nil && record != nil {
		if err := e.log.Append(e.tick, record()); err != nil {
			return err
		}
		if e.opts.SyncEveryTick {
			if err := e.log.Sync(); err != nil {
				return err
			}
		}
	}

	applyStart := time.Now()
	applied, err := apply()
	if err != nil {
		return err
	}
	applyDur := time.Since(applyStart)

	pause, _ := e.cp.endTick(e.tick) // a held anchor retries at the next tick end
	e.drainCompleted(e.tick + 1)     // this tick's records are already appended

	e.stats.Ticks++
	e.stats.UpdatesApplied += applied
	e.stats.ApplyTotal += applyDur
	e.stats.PauseTotal += pause
	telTicks.Inc()
	telUpdates.Add(uint64(applied))
	telApplyWall.ObserveDuration(applyDur)
	if pause > 0 {
		telPause.ObserveDuration(pause)
	}
	if e.opts.KeepTickStats {
		e.stats.TickTimings = append(e.stats.TickTimings,
			TickTiming{Apply: applyDur, Pause: pause})
	}
	tick := e.tick
	e.tick++
	e.notifySubs(tick)
	return nil
}

// bucketBatch appends updates to dst in bitmap-word order (64 objects: the
// grain of the dirty maps, the shard plan, the router and the gateway
// fan-out) and returns it: a stable counting sort, so the batch order of
// writes to any one cell is kept and applying the bucket leaves the slab
// byte-identical to applying the batch update by update. An update whose cell
// lies past the table is dropped: it is neither logged nor applied, exactly
// as replay drops it from an older log. The tick's bucket is what the engine
// logs (as runs) and what applyBucket walks.
func (e *Engine) bucketBatch(dst, updates []wal.Update, off []int32) []wal.Update {
	cpw := 64 * e.store.cellsPerObj
	limit := uint32(len(e.store.slab) / 4)
	// Count at word+2, so that after the prefix sum off[w+1] is where word w
	// starts; placing through off[w+1]++ then leaves off[w] at word w's start.
	clear(off)
	for _, u := range updates {
		if u.Cell < limit {
			off[u.Cell/cpw+2]++
		}
	}
	for w := 2; w < len(off); w++ {
		off[w] += off[w-1]
	}
	start, n := len(dst), int(off[len(off)-1])
	dst = slices.Grow(dst, n)[:start+n]
	bucket := dst[start:]
	for _, u := range updates {
		if u.Cell < limit {
			at := &off[u.Cell/cpw+1]
			bucket[*at] = u
			*at++
		}
	}
	return dst
}

// applyBucket applies a bucketBatch result through the checkpointer and
// returns the number of cells written: per touched word it tells the
// checkpointer which objects are about to change — one onWord call — then
// writes the word's segment, so the stores walk the slab in address order.
func (e *Engine) applyBucket(bucket []wal.Update) int64 {
	cpo := e.store.cellsPerObj
	cpw := 64 * cpo
	for i := 0; i < len(bucket); {
		w := bucket[i].Cell / cpw
		end := uint64(w+1) * uint64(cpw)
		var mask uint64
		j := i
		for ; j < len(bucket) && uint64(bucket[j].Cell) < end; j++ {
			mask |= 1 << (bucket[j].Cell / cpo & 63)
		}
		e.cp.onWord(int32(w), mask)
		for _, u := range bucket[i:j] {
			e.store.SetCell(u.Cell, u.Value)
		}
		i = j
	}
	return int64(len(bucket))
}

// applyBatch buckets and applies one batch: the apply half of ApplyTick for
// a batch that is already logged (a replicated tick).
func (e *Engine) applyBatch(updates []wal.Update) int64 {
	e.bucket = e.bucketBatch(e.bucket[:0], updates, e.off)
	return e.applyBucket(e.bucket)
}

// drainCompleted consumes the checkpoint writer's pending reports. nextTick
// is the tick the next log record will carry.
func (e *Engine) drainCompleted(nextTick uint64) {
	for {
		select {
		case ev := <-e.cp.completed():
			e.recordCheckpoint(ev, nextTick, true)
		default:
			return
		}
	}
}

// recordCheckpoint books a committed image — the one place Stats, /metrics
// and the prune floor learn of it; an abandoned flush
// committed nothing and is not booked. With rotate set (a log record can
// still follow) it also rotates the log so the new segment is named
// nextTick, the tick of the first record it will hold — the name is what
// lets recovery skip the sealed segments before it.
func (e *Engine) recordCheckpoint(ev cpEvent, nextTick uint64, rotate bool) {
	if ev.abandoned {
		return
	}
	info := ev.CheckpointInfo
	e.stats.Checkpoints = append(e.stats.Checkpoints, info)
	telCheckpoints.Inc()
	telCkptBytes.Add(uint64(info.Bytes))
	// Records at or before info.AsOfTick are covered by the new image;
	// keep one prior image's worth for safety, and never prune past a
	// replication subscriber's watermark — a shipper may still be
	// streaming segments the checkpoint has made redundant locally.
	if rotate && e.log != nil && e.log.Rotate(nextTick) == nil {
		// While degraded (one backup family sick), pruning stops: the
		// survivor's images are the only complete family left, and if
		// that device also turns unreadable at recovery time the full
		// log is the last line of defense. Retention over reclamation.
		if e.havePrev && !e.cp.degraded() {
			_ = e.log.Prune(e.retainFrom(e.prevAsOf + 1))
		}
	}
	e.prevAsOf = info.AsOfTick
	e.havePrev = true
}

// CheckpointNow begins a checkpoint of the current state if none is in
// flight, then blocks until a checkpoint completes and returns its info.
// The image is labeled as of the last applied tick, so at least one tick
// must have been applied. It is the synchronous hook the benchmarks and the
// shard-scaling harness use to measure full flush wall time.
func (e *Engine) CheckpointNow() (CheckpointInfo, error) {
	if e.closed {
		return CheckpointInfo{}, errors.New("engine: closed")
	}
	if e.opts.Mode == ModeNone {
		return CheckpointInfo{}, errors.New("engine: ModeNone cannot checkpoint")
	}
	if e.tick == 0 {
		return CheckpointInfo{}, errors.New("engine: no ticks applied")
	}
	// Record any already-queued completion first, so the info returned
	// below describes a checkpoint that finished during this call rather
	// than one that finished before it.
	e.drainCompleted(e.tick)
	for {
		// Every pass either finds the writer dead, waits out an image pin
		// that held the cut off, or leaves a flush in flight — endTick is a
		// no-op while one already is — and every flush ends in exactly one
		// event, so the receive below cannot park forever. An
		// abandoned flush loops: after a superseded one the next cut rewrites
		// its backup; after a backup went sick mid-write it targets the
		// survivor, or the check finds the fatal error (a failed anchor
		// included). An anchor the log is ahead of returns at once.
		if _, err := e.cp.endTick(e.tick - 1); err != nil {
			return CheckpointInfo{}, fmt.Errorf("engine: checkpoint: degrade anchor held off: %w", err)
		}
		if err := e.cp.err(); err != nil {
			return CheckpointInfo{}, fmt.Errorf("engine: checkpoint writer failed: %w", err)
		}
		if e.cp.waitPin() {
			continue // an image pin held the cut off, and has dropped
		}
		ev, ok := <-e.cp.completed()
		if !ok {
			return CheckpointInfo{}, errors.New("engine: checkpointer stopped")
		}
		e.recordCheckpoint(ev, e.tick, true)
		if !ev.abandoned {
			return ev.CheckpointInfo, nil
		}
	}
}

// CheckpointDegraded reports whether the checkpointer has lost one backup
// family and is writing images to the survivor only. A degraded engine keeps
// ticking and checkpointing; it stops pruning its log (see
// recordCheckpoint) so recovery never depends on the sick device.
func (e *Engine) CheckpointDegraded() bool { return e.cp.degraded() }

// CheckpointAsOf blocks until a completed checkpoint image covers tick —
// its AsOfTick at or past tick — and returns that checkpoint's info.
// Checkpoints run back-to-back, so a flush in flight may have begun ticks
// ago and be as-of an old tick; CheckpointAsOf supersedes such a flush
// rather than wait it out, and loops until the returned AsOfTick reaches
// the target. tick must already have been applied. It is the building block
// of the cluster's coordinated cuts: all nodes CheckpointAsOf the same tick
// and the per-node images form a globally consistent world checkpoint by
// construction of synchronized ticks.
func (e *Engine) CheckpointAsOf(tick uint64) (CheckpointInfo, error) {
	if tick >= e.tick {
		return CheckpointInfo{}, fmt.Errorf("engine: checkpoint as-of tick %d: only %d ticks applied", tick, e.tick)
	}
	for {
		e.cp.supersede(tick)
		info, err := e.CheckpointNow()
		if err != nil || info.AsOfTick >= tick {
			return info, err
		}
	}
}

// Stats returns a snapshot of the engine's aggregates.
func (e *Engine) Stats() Stats { return e.stats }

// CheckpointStats exposes the checkpointer's counters.
func (e *Engine) CheckpointStats() *CPStats { return e.cp.stats() }

// Close finishes the in-flight checkpoint, flushes the log, and releases
// resources, the state slab included (Store.Slab is nil afterwards). The
// engine must not be used afterwards.
func (e *Engine) Close() error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	cpErr := e.cp.close()
	// Book completions that landed during shutdown; no record follows them,
	// so the log is left as it is.
	for ev := range e.cp.completed() {
		e.recordCheckpoint(ev, e.tick, false)
	}
	var logErr error
	if e.log != nil {
		logErr = e.log.Close()
	}
	// The checkpointer's writer and its shard flushers are joined, and every
	// other slab reader holds tickMu and checks closed.
	e.store.release()
	return cmp.Or(cpErr, logErr, e.closeDevices())
}

// openBackupDevice opens backup i's device (0: a, 1: b) in opts.Dir,
// through opts.DeviceFactory when it is set.
func openBackupDevice(opts Options, i int) (disk.Device, error) {
	path := filepath.Join(opts.Dir, [2]string{"backup-a.img", "backup-b.img"}[i])
	if opts.DeviceFactory != nil {
		return opts.DeviceFactory(path)
	}
	return disk.OpenFile(path)
}

// ImageEnd returns one past the tick of the image RecoverFrom(opts) would
// restore, or 0 when there is none, reading only the backups' headers.
func ImageEnd(opts Options) (uint64, error) {
	if opts.InMemory {
		return 0, nil
	}
	var bs [2]*disk.Backup
	for i := range bs {
		d, err := openBackupDevice(opts, i)
		if err != nil {
			return 0, err
		}
		defer d.Close()
		if bs[i], err = disk.NewBackup(d, opts.Table.NumObjects(), opts.Table.ObjSize); err != nil {
			return 0, err
		}
	}
	h, ok, err := recovery.NewestImage(bs[0], bs[1])
	if err != nil || !ok {
		return 0, err
	}
	return h.AsOfTick + 1, nil
}

// HoldsState reports whether opts.Dir holds an engine's state — a complete
// backup image, or a log segment with anything past its header — from the
// image headers and the segment sizes alone: nothing is restored or replayed.
func HoldsState(opts Options) (bool, error) {
	if opts.InMemory || opts.Dir == "" {
		return false, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return false, fmt.Errorf("engine: %w", err)
	}
	if end, err := ImageEnd(opts); err != nil || end > 0 {
		return end > 0, err
	}
	return wal.HoldsRecords(filepath.Join(opts.Dir, "wal"))
}

// closeDevices closes the backup devices open has opened and returns the
// first error.
func (e *Engine) closeDevices() error {
	var first error
	for _, d := range e.devs {
		if d != nil {
			first = cmp.Or(first, d.Close())
		}
	}
	return first
}
