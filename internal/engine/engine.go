package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// applyBatch). 0 uses GOMAXPROCS; the count is rounded down to a power
	// of two and small states fold to fewer shards (Shards reports the
	// effective count). 1 reproduces the paper's single-writer engine
	// exactly.
	Shards int
	// DeviceFactory overrides how backup devices are opened (fault
	// injection in tests). Nil uses regular files.
	DeviceFactory func(path string) (disk.Device, error)
	// ReplayAction re-executes action records logged with ApplyActionTick.
	// Required if the log contains (or will contain) action ticks.
	ReplayAction ReplayActionFunc
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
	opts   Options
	store  *Store
	cp     checkpointer
	log    *wal.Log
	walDir string
	plan   shardPlan

	// tickMu serializes the mutator paths (ApplyTick, ApplyActionTick,
	// IngestReplicated) against the replication snapshot handoff, so
	// Snapshot never observes a half-applied tick. Uncontended in a
	// replication-free engine.
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
	// bucket and off are applyBatch's reused counting-sort buffers: the
	// tick's updates in bitmap-word order, and word w's segment bounds
	// off[w]:off[w+1].
	bucket    []wal.Update
	off       []int32
	stats     Stats
	prevAsOf  uint64
	havePrev  bool
	recovered recovery.Result
	closed    bool

	// cpEpoch mirrors the epoch of the newest completed checkpoint image
	// (the recovery start epoch until one completes). Peer-RAM replica
	// senders read it without taking the tick mutex to stamp the images
	// they ship.
	cpEpoch atomic.Uint64
}

// Open creates or reopens an engine in opts.Dir. If the directory holds a
// previous incarnation's state, Open performs crash recovery (restore newest
// complete image + replay the logical log) before returning; the outcome is
// available via Recovery(). Open recovers serially — the paper's
// ΔTrecovery = ΔTrestore + ΔTreplay sum; RecoverFrom is the sharded
// pipelined alternative.
func Open(opts Options) (*Engine, error) {
	e, _, err := open(opts, false, nil, nil)
	return e, err
}

// RecoverFrom opens an engine in opts.Dir like Open, but runs the sharded
// parallel recovery pipeline: the backup image is restored by one vectored
// reader per shard while the logical log replays in parallel — every update
// batch decoded once into per-shard buckets, every shard applying only its
// own — each shard's replay gated on its own restore watermark (see
// recovery.RecoverParallel). The recovered engine resumes ticking with its
// shard partition pre-populated; the returned ParallelResult carries the
// per-shard and per-stage timing breakdown.
//
// Recovery is byte-identical to Open's serial path for update-batch logs at
// any shard count. Logs holding action records replay exactly when
// Options.ReplayAction derives every write from the payload and cells of
// the object range it is writing into (e.g. per-unit read-modify-write,
// gated on TickWriter.Owns); an action whose writes depend on reads from
// other shards needs the serial path.
func RecoverFrom(opts Options) (*Engine, recovery.ParallelResult, error) {
	return open(opts, true, nil, nil)
}

func open(opts Options, parallel bool, peer *RecoverSource, tail func() (recovery.RecordSource, error)) (*Engine, recovery.ParallelResult, error) {
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
	telDegraded.Set(0)

	var devs [2]disk.Device
	if opts.InMemory {
		devs[0], devs[1] = disk.NewMem(), disk.NewMem()
	} else {
		if opts.Dir == "" {
			return nil, pres, errors.New("engine: Dir required unless InMemory")
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, pres, fmt.Errorf("engine: %w", err)
		}
		open := opts.DeviceFactory
		if open == nil {
			open = func(path string) (disk.Device, error) { return disk.OpenFile(path) }
		}
		for i, name := range []string{"backup-a.img", "backup-b.img"} {
			d, err := open(filepath.Join(opts.Dir, name))
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
	var backups [2]*disk.Backup
	for i, d := range devs {
		b, err := disk.NewBackup(d, store.NumObjects(), store.ObjSize())
		if err != nil {
			return nil, pres, err
		}
		backups[i] = b
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
		// Record interpretation during replay needs a checkpointer in place
		// for action ticks; bookkeeping is irrelevant here (everything is
		// marked dirty after recovery), so a no-op stands in.
		e.cp = newNop()
		// Range-install records are logged at the tick *about to run* and
		// must never count as evidence that tick ran (InstallRange), so the
		// recovered next tick is derived from non-install records only —
		// the generic recovery layer's lastTick+1 would overshoot by one
		// when an install is the final record (crash right after a
		// migration cutover, before its first tick).
		var res recovery.Result
		// ranNext[w] is one past the last tick replay worker w saw a
		// non-install record for; 0 means none.
		var ranNext []uint64
		ran := func(w int, tick uint64, body []byte) {
			if len(body) > 0 && body[0] != recInstall {
				ranNext[w] = tick + 1
			}
		}
		cellsPerObj := store.Table().CellsPerObject()
		if parallel {
			// The pipeline is partitioned exactly like the engine: one
			// restore reader and one replay worker per shard, each owning
			// its plan range of the slab. Update batches reach a worker as
			// its own bucket of cells, cut at the plan's cell bounds.
			ranges := make([]recovery.ShardRange, e.plan.count())
			bounds := make([]uint32, e.plan.count())
			ranNext = make([]uint64, e.plan.count())
			for s := range ranges {
				lo, hi := e.plan.objRange(s)
				ranges[s] = recovery.ShardRange{Lo: lo, Hi: hi}
				bounds[s] = uint32(hi * cellsPerObj)
			}
			popts := recovery.ParallelOptions{
				A: backups[0], B: backups[1], Slab: store.Slab(), Log: log,
				Ranges: ranges,
				Apply: func(shard int, tick uint64, body []byte) (int64, error) {
					ran(shard, tick, body)
					return e.replayRecordRange(ranges[shard].Lo, ranges[shard].Hi, tick, body)
				},
				Split:      updateBatch,
				CellBounds: bounds,
				ApplyUpdates: func(shard int, tick uint64, upds []wal.Update) {
					ranNext[shard] = tick + 1
					e.replayUpdates(upds)
				},
			}
			if peer != nil {
				popts.Image = peer.Image
				popts.Prelude, err = peer.Prelude()
			}
			if err == nil && tail != nil {
				popts.Tail, err = tail()
			}
			if err == nil {
				pres, err = recovery.RecoverParallel(popts)
				res = pres.Result
			}
		} else {
			// The serial path is the one-bucket case of the same split: the
			// single bound drops cells past the table.
			var bucket [1][]wal.Update
			bound := [1]uint32{uint32(store.NumObjects() * cellsPerObj)}
			var replayed int64
			ranNext = make([]uint64, 1)
			res, err = recovery.RunRecords(backups[0], backups[1], store.Slab(), log,
				func(tick uint64, body []byte) error {
					ran(0, tick, body)
					batch, ok := updateBatch(body)
					if !ok {
						n, rerr := e.replayRecordRange(0, store.NumObjects(), tick, body)
						replayed += n
						return rerr
					}
					bucket[0] = bucket[0][:0]
					if derr := wal.SplitUpdates(bucket[:], bound[:], batch); derr != nil {
						return fmt.Errorf("record at tick %d: %w", tick, derr)
					}
					e.replayUpdates(bucket[0])
					replayed += int64(len(bucket[0]))
					return nil
				})
			res.ReplayedUpdates = replayed
		}
		if err != nil {
			log.Close()
			return nil, pres, err
		}
		next := uint64(0) // first tick the restored image does not cover
		if res.Restored {
			next = res.AsOfTick + 1
		}
		if tail != nil {
			// Heal the local log with the tail records it was missing, so the
			// directory recovers to the same tick on its own next time.
			src, terr := tail()
			if terr == nil {
				terr = healLog(log, src, next, pres, pres.LastTickRecords)
			}
			if terr != nil {
				log.Close()
				return nil, pres, terr
			}
		}
		for _, n := range ranNext {
			if n > next {
				next = n
			}
		}
		res.NextTick = next
		pres.NextTick = next
		e.recovered = res
		e.tick = res.NextTick
		startEpoch = res.Epoch
		if res.Restored && res.BackupIndex >= 0 {
			// Write the next image over the stale backup.
			firstBackup = 1 - res.BackupIndex
			e.prevAsOf = res.AsOfTick
			e.havePrev = true
		}
		if peer != nil {
			// The slab was restored from a peer's RAM: neither disk image was
			// read, and both may carry headers from the pre-crash incarnation.
			// Start the epoch at or above whatever the disk holds so the
			// images this incarnation writes always win ChooseBackup over the
			// stale leftovers, and target the older family first.
			if idx, h, cerr := recovery.ChooseBackup(backups[0], backups[1]); cerr == nil && idx >= 0 {
				if h.Epoch > startEpoch {
					startEpoch = h.Epoch
				}
				firstBackup = 1 - idx
			}
		}
	}

	e.cp = newCheckpointer(opts.Mode, store, backups, startEpoch, firstBackup, e.plan)
	e.cpEpoch.Store(startEpoch)
	return e, pres, nil
}

// CheckpointEpoch returns the epoch of the engine's newest completed
// checkpoint image — the recovery start epoch until the first checkpoint
// completes. Safe to call from any goroutine; the peer-RAM replica sender
// stamps shipped images with it.
func (e *Engine) CheckpointEpoch() uint64 { return e.cpEpoch.Load() }

// Shards returns the effective shard count of the engine's partition.
func (e *Engine) Shards() int { return e.plan.count() }

// Recovery returns the outcome of the recovery performed by Open.
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
// per game tick, from one goroutine.
func (e *Engine) ApplyTick(updates []wal.Update) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	return e.commit(false, 1,
		func(int) []byte {
			e.encBuf = wal.EncodeUpdates(append(e.encBuf[:0], recUpdates), updates)
			return e.encBuf
		},
		func() (int64, error) { return e.applyBatch(updates), nil })
}

// ApplyTickParallel is ApplyTick: the per-shard apply pool it once selected
// lost to the inline bucketed apply on the hosts measured (DESIGN.md,
// "Sharding layout"), and the name survives for the repository benchmark.
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
// action ticks, envelope ticks, replicated ticks — supplies just what is its
// own: record(i) returns the i-th of nrec encoded log record bodies (kind tag
// included; called only on a durable engine, and valid until the next call),
// and apply mutates the slab through the checkpointer and returns the number
// of cell writes. The caller holds tickMu. An error means the tick did not
// commit: the tick counter has not advanced and no subscriber was told.
func (e *Engine) commit(standby bool, nrec int, record func(i int) []byte, apply func() (int64, error)) error {
	if err := e.guard(standby); err != nil {
		return err
	}
	// Logical logging first: a tick is replayable before its effects are in
	// volatile memory only.
	if e.log != nil {
		for i := 0; i < nrec; i++ {
			if err := e.log.Append(e.tick, record(i)); err != nil {
				return err
			}
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

	pause := e.cp.endTick(e.tick)
	e.drainCompleted(e.tick + 1) // this tick's records are already appended

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

// applyBatch applies one update batch through the checkpointer and returns
// the number of cells written. It buckets the batch once, by a stable counting
// sort on bitmap word (64 objects: the grain of the dirty maps, the shard
// plan, the router and the gateway fan-out), then per touched word tells the
// checkpointer which objects are about to change — one onWord call — and
// writes the word's segment, so the stores walk the slab in address order.
// Stability keeps the batch order of writes to any one cell: the slab ends
// byte-identical to applying the batch update by update. An update whose
// cell lies past the table is written nowhere and not counted, exactly as
// replay drops it (wal.SplitUpdates' last bound).
func (e *Engine) applyBatch(updates []wal.Update) int64 {
	cpo := e.store.cellsPerObj
	cpw := 64 * cpo
	limit := uint32(len(e.store.slab) / 4)
	// Count at word+2, so that after the prefix sum off[w+1] is where word w
	// starts; placing through off[w+1]++ then leaves off[w] at word w's start.
	off := e.off
	clear(off)
	for _, u := range updates {
		if u.Cell < limit {
			off[u.Cell/cpw+2]++
		}
	}
	for w := 2; w < len(off); w++ {
		off[w] += off[w-1]
	}
	if cap(e.bucket) < len(updates) {
		e.bucket = make([]wal.Update, len(updates))
	}
	bucket := e.bucket[:len(updates)]
	for _, u := range updates {
		if u.Cell < limit {
			at := &off[u.Cell/cpw+1]
			bucket[*at] = u
			*at++
		}
	}
	for w := 0; w < len(off)-2; w++ {
		seg := bucket[off[w]:off[w+1]]
		if len(seg) == 0 {
			continue
		}
		var mask uint64
		for _, u := range seg {
			mask |= 1 << (u.Cell / cpo & 63)
		}
		e.cp.onWord(int32(w), mask)
		for _, u := range seg {
			e.store.SetCell(u.Cell, u.Value)
		}
	}
	return int64(off[len(off)-1])
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

// recordCheckpoint books a committed image — the one place Stats, /metrics,
// the epoch mirror and the prune floor learn of it; an abandoned flush
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
	e.cpEpoch.Store(info.Epoch)
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
		// Every pass either finds the writer dead or leaves a flush in flight
		// — endTick is a no-op while one already is — and every flush ends in
		// exactly one event, so the receive below cannot park forever. An
		// abandoned flush (a backup went sick mid-write) loops: the next cut
		// targets the surviving backup, or the check finds the fatal error.
		if err := e.cp.err(); err != nil {
			return CheckpointInfo{}, fmt.Errorf("engine: checkpoint writer failed: %w", err)
		}
		e.cp.endTick(e.tick - 1)
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
// Checkpoints run back-to-back, so a single CheckpointNow may return a
// flush that began ticks ago and is as-of an old tick; every caller that
// needs "the image covers tick T" must loop until the returned AsOfTick
// reaches the target, and this is that loop. tick must already have been
// applied. It is the building block of the cluster's coordinated cuts: all
// nodes CheckpointAsOf the same tick and the per-node images form a
// globally consistent world checkpoint by construction of synchronized
// ticks.
func (e *Engine) CheckpointAsOf(tick uint64) (CheckpointInfo, error) {
	if tick >= e.tick {
		return CheckpointInfo{}, fmt.Errorf("engine: checkpoint as-of tick %d: only %d ticks applied", tick, e.tick)
	}
	for {
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
// resources. The engine must not be used afterwards.
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
	if cpErr != nil {
		return cpErr
	}
	return logErr
}
