package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// Mode selects the recovery method the engine runs.
type Mode int

const (
	// ModeNone disables checkpointing (baseline for overhead measurement).
	ModeNone Mode = iota
	// ModeNaiveSnapshot quiesces at a tick end, copies the whole slab to a
	// shadow buffer (the pause) and flushes it asynchronously.
	ModeNaiveSnapshot
	// ModeCopyOnUpdate keeps per-object dirty bits, copies pre-images on
	// first update while a flush is in flight, and writes only dirty
	// objects — the paper's recommended method.
	ModeCopyOnUpdate
	// ModeAtomicCopy eagerly copies only the dirty objects at the tick
	// boundary (Atomic-Copy-Dirty-Objects): a middle ground whose pause
	// scales with the dirty set instead of the whole state.
	ModeAtomicCopy
	// ModeDribble implements Dribble-and-Copy-on-Update: every checkpoint
	// writes the whole state, flushed by a dribbling writer, with pre-image
	// copies on first update — no eager pause, full images every time.
	ModeDribble
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeNaiveSnapshot:
		return "naive-snapshot"
	case ModeCopyOnUpdate:
		return "copy-on-update"
	case ModeAtomicCopy:
		return "atomic-copy-dirty-objects"
	case ModeDribble:
		return "dribble-and-copy-on-update"
	default:
		return "unknown"
	}
}

// CheckpointInfo describes one completed checkpoint.
type CheckpointInfo struct {
	Epoch    uint64
	AsOfTick uint64
	// Duration spans begin (pause start) to the completion header sync.
	Duration time.Duration
	// Pause is the synchronous portion charged to the game tick.
	Pause time.Duration
	// Objects and Bytes flushed.
	Objects int
	Bytes   int64
}

// CPStats aggregates checkpointer activity. Fields written by the writer
// goroutines use atomics.
type CPStats struct {
	Checkpoints  atomic.Int64
	BytesWritten atomic.Int64
	Copies       atomic.Int64 // copy-on-update pre-image copies
	Locks        atomic.Int64 // apply-path stripe locks (the paper's Olock): one per object per checkpoint
	PauseTotal   atomic.Int64 // nanoseconds
	PauseMax     atomic.Int64 // nanoseconds
	// PauseBytes counts the bytes copied synchronously inside the pauses:
	// the full state for naive, the dirty objects for atomic-copy, the
	// bitmap words for copy-on-update. It is the pause's deterministic
	// size, where PauseTotal is its wall-clock cost on this host.
	PauseBytes atomic.Int64
}

func (s *CPStats) recordPause(d time.Duration) {
	s.PauseTotal.Add(int64(d))
	for {
		cur := s.PauseMax.Load()
		if int64(d) <= cur || s.PauseMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// checkpointer is the engine-side counterpart of the simulator's algorithm
// interface — the paper's Checkpointing Algorithmic Framework (Section 3,
// Table 1). onWord is the one update hook: the objects of bitmap word w
// named by mask (object w<<6+i for bit i) are about to be written. It runs on
// the mutator goroutine — the one holding the tick mutex — before the first
// store of the caller's batch reaches any of them: once per touched word per
// applyBatch, with one bit from TickWriter.Set and whole-word masks from
// installObjects. endTick runs on the same goroutine at tick boundaries.
type checkpointer interface {
	onWord(w int32, mask uint64)
	// endTick may begin a checkpoint; it returns the synchronous pause.
	endTick(tick uint64) time.Duration
	// completed returns the channel of the writer's reports, one per
	// checkpoint begun.
	completed() <-chan cpEvent
	// close stops the writer after the in-flight flush completes.
	close() error
	stats() *CPStats
	// err surfaces an asynchronous writer failure, if any.
	err() error
	// degraded reports the checkpointer is running on one surviving backup
	// after the other's device went sick mid-flush. A degraded checkpointer
	// keeps checkpointing — to the survivor only — and the engine stops
	// pruning its log (the degrade contract recovery depends on: with a
	// single image family, the full log must stay replayable).
	degraded() bool
	// bootstrap persists the live slab, consistent as of asOfTick, as a
	// complete image on the backup the next checkpoint would have targeted,
	// stamped with the next epoch, and leaves the rotation pointing at the
	// other backup — exactly the state recovery sets up after restoring an
	// image. Called before any tick, on the opening goroutine, while the
	// writer is idle. ok is false when the mode has no backups.
	bootstrap(asOfTick uint64) (ev cpEvent, ok bool, err error)
}

// cpEvent is the writer's report on one checkpoint: the committed image's
// info, or abandoned when the flush failed and no image was committed. The
// engine books the first kind; the second only wakes CheckpointNow.
type cpEvent struct {
	CheckpointInfo
	abandoned bool
}

// nopCheckpointer is the ModeNone baseline.
type nopCheckpointer struct {
	st   CPStats
	done chan cpEvent
}

func newNop() *nopCheckpointer {
	return &nopCheckpointer{done: make(chan cpEvent)}
}

func (n *nopCheckpointer) onWord(int32, uint64) {}
func (n *nopCheckpointer) bootstrap(uint64) (cpEvent, bool, error) {
	return cpEvent{}, false, nil
}
func (n *nopCheckpointer) endTick(uint64) time.Duration { return 0 }
func (n *nopCheckpointer) completed() <-chan cpEvent    { return n.done }
func (n *nopCheckpointer) close() error                 { close(n.done); return nil }
func (n *nopCheckpointer) stats() *CPStats              { return &n.st }
func (n *nopCheckpointer) err() error                   { return nil }
func (n *nopCheckpointer) degraded() bool               { return false }

// strategy is what Table 1 says differs between the methods: the update
// handler (checkpointer.onWord, the one method of that interface a
// strategy implements itself), the synchronous step at the quiescent tick
// end, and what the asynchronous writer puts on disk. Everything else is the
// embedded coordinator's.
type strategy interface {
	checkpointer
	// cut fixes the image of the tick that just ended — the objects to
	// write to backup target and, where the method copies eagerly, their
	// bytes — and returns the bytes it copied. It runs inside the pause.
	cut(target int) (pauseBytes int64)
	// flushShard writes shard s's share of the cut image to b, in ascending
	// offset order, and returns the objects and bytes written. The writer
	// runs one call per shard concurrently.
	flushShard(s int, b *disk.Backup) (objects int, bytes int64, err error)
}

// newCheckpointer builds the checkpointer for mode: the strategy's own
// buffers, then the shared coordinator around them.
func newCheckpointer(mode Mode, store *Store, backups [2]*disk.Backup, startEpoch uint64, firstBackup int, plan shardPlan) checkpointer {
	var (
		s strategy
		c *coordinator
	)
	switch mode {
	case ModeNaiveSnapshot:
		cp := &naiveCP{shadow: make([]byte, len(store.Slab()))}
		s, c = cp, &cp.coordinator
	case ModeCopyOnUpdate, ModeDribble:
		cp := newCOU(store, plan, mode == ModeDribble)
		s, c = cp, &cp.coordinator
	case ModeAtomicCopy:
		cp := newAtomicCopy(store)
		s, c = cp, &cp.coordinator
	default:
		return newNop()
	}
	c.method, c.store, c.backups, c.plan = s, store, backups, plan
	c.epoch, c.cur = startEpoch, firstBackup
	c.jobs = make(chan cpJob, 1)
	// The engine drains after every endTick, so at most two events are ever
	// pending; the slack lets a crash test close the checkpointer without
	// draining it.
	c.done = make(chan cpEvent, 8)
	c.wg.Add(1)
	go c.writer()
	return s
}

// cpJob asks the writer to commit the image fixed by the last cut.
type cpJob struct {
	epoch  uint64
	tick   uint64
	backup int
	begin  time.Time
	pause  time.Duration
}

// coordinator is the part of the framework every method shares: the
// double-backup rotation and epoch, the degrade rule, the in-flight gate,
// the endTick frame, the single writer goroutine and the image-commit
// protocol. A method embeds it by value and adds only its strategy hooks, so
// onWord stays a direct method of the concrete type — one interface call
// from the apply loop.
//
// Commit protocol: an image is invalidated by an incomplete header before
// any data is written, the shard flushers write disjoint regions of the same
// backup concurrently, one Sync covers them all, and one complete header is
// the commit point. The coordinator is the sole writer of the header. A
// crash or device failure at any step leaves that backup incomplete and the
// other — which the rotation never touches in the same checkpoint — intact.
//
// Degrade rule: the first backup to fail a flush goes sick and every later
// checkpoint targets the survivor; a second failure is fatal (werr), since
// no healthy family is left to write. A failed job is abandoned, never
// retried: its image is already invalid, and a method's flush state (shard
// cursors) advanced during the failed flush, so a retry against the same cut
// would mix tick states. The next endTick cuts fresh state for the survivor.
type coordinator struct {
	method  strategy
	store   *Store
	backups [2]*disk.Backup
	plan    shardPlan

	// epoch and cur (the backup the next checkpoint targets) belong to the
	// goroutine that calls endTick; the writer sees them only through jobs.
	epoch    uint64
	cur      int
	inFlight atomic.Bool

	jobs chan cpJob
	done chan cpEvent
	wg   sync.WaitGroup
	st   CPStats
	werr writerErr
	sick sickSet
}

// endTick begins a checkpoint unless one is in flight or the writer is dead.
// The pause it returns is the strategy's cut and nothing else; the target is
// picked here, at the cut, so the dirty map a strategy cuts from is the
// target's own.
func (c *coordinator) endTick(tick uint64) time.Duration {
	if c.inFlight.Load() || c.werr.get() != nil {
		return 0
	}
	begin := time.Now()
	target := c.sick.redirect(c.cur)
	pauseBytes := c.method.cut(target)
	pause := time.Since(begin)
	c.st.recordPause(pause)
	c.st.PauseBytes.Add(pauseBytes)
	c.epoch++
	c.cur = target ^ 1
	// Raised after the cut: whatever the cut published (write set, rewound
	// cursors) is in place before any onWord can observe the new flush.
	c.inFlight.Store(true)
	c.jobs <- cpJob{epoch: c.epoch, tick: tick, backup: target, begin: begin, pause: pause}
	return pause
}

func (c *coordinator) writer() {
	defer c.wg.Done()
	for job := range c.jobs {
		info, err := c.writeImage(job, c.method.flushShard)
		if err != nil {
			if !c.sick.markSick(job.backup) {
				c.werr.set(err)
			}
			telDegraded.Set(1)
		}
		c.inFlight.Store(false)
		c.done <- cpEvent{CheckpointInfo: info, abandoned: err != nil}
	}
}

// writeImage is the engine's only image-commit routine (see the commit
// protocol above): checkpoints and the bootstrap image both go through it.
func (c *coordinator) writeImage(job cpJob, flushShard func(s int, b *disk.Backup) (int, int64, error)) (CheckpointInfo, error) {
	b := c.backups[job.backup]
	hdr := disk.Header{Epoch: job.epoch, AsOfTick: job.tick}
	if err := b.WriteHeader(hdr); err != nil { // invalidate the old image
		return CheckpointInfo{}, err
	}
	objects, bytes, err := fanOutFlush(c.plan, b, flushShard)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if err := b.Sync(); err != nil {
		return CheckpointInfo{}, err
	}
	hdr.Complete = true
	if err := b.WriteHeader(hdr); err != nil { // commit point
		return CheckpointInfo{}, err
	}
	c.st.Checkpoints.Add(1)
	c.st.BytesWritten.Add(bytes)
	return CheckpointInfo{
		Epoch:    job.epoch,
		AsOfTick: job.tick,
		Duration: time.Since(job.begin),
		Pause:    job.pause,
		Objects:  objects,
		Bytes:    bytes,
	}, nil
}

func (c *coordinator) bootstrap(asOfTick uint64) (cpEvent, bool, error) {
	c.epoch++
	job := cpJob{epoch: c.epoch, tick: asOfTick, backup: c.cur, begin: time.Now()}
	c.cur ^= 1
	// Nothing ticks yet, so the live slab is the immutable source.
	info, err := c.writeImage(job, func(s int, b *disk.Backup) (int, int64, error) {
		return c.writeRegion(b, c.store.Slab(), s)
	})
	return cpEvent{CheckpointInfo: info}, true, err
}

// writeRegion is the straight shard flusher: src is a whole-state buffer
// nothing mutates while the image is written, so shard s's region goes out
// of it directly — ioChunk slices batched into one vectored write.
func (c *coordinator) writeRegion(b *disk.Backup, src []byte, s int) (int, int64, error) {
	lo, hi := c.plan.objRange(s)
	sz := c.store.ObjSize()
	region := src[lo*sz : hi*sz]
	if err := b.WriteRunVec(lo, chunkSlices(region)); err != nil {
		return 0, 0, err
	}
	return hi - lo, int64(len(region)), nil
}

func (c *coordinator) completed() <-chan cpEvent { return c.done }
func (c *coordinator) stats() *CPStats           { return &c.st }
func (c *coordinator) err() error                { return c.werr.get() }
func (c *coordinator) degraded() bool            { return c.sick.any() }

func (c *coordinator) close() error {
	close(c.jobs)
	c.wg.Wait()
	close(c.done)
	return c.werr.get()
}

// sickSet tracks which of a double-backup pair's devices have failed a
// flush. The first sick backup degrades the checkpointer to the survivor; a
// second failure is fatal (no healthy family left to write).
type sickSet struct{ sick [2]atomic.Bool }

// markSick records a failed flush against backup b and reports whether the
// other backup survives (false = both sick, the failure is fatal).
func (s *sickSet) markSick(b int) bool {
	s.sick[b].Store(true)
	return !s.sick[b^1].Load()
}

// redirect returns the backup a flush targeting cur should actually use:
// cur itself while healthy, else the survivor.
func (s *sickSet) redirect(cur int) int {
	if s.sick[cur].Load() {
		return cur ^ 1
	}
	return cur
}

// any reports whether at least one backup is sick.
func (s *sickSet) any() bool { return s.sick[0].Load() || s.sick[1].Load() }

// writerErr holds the first asynchronous failure.
type writerErr struct{ v atomic.Value }

func (w *writerErr) set(err error) {
	if err != nil {
		w.v.CompareAndSwap(nil, err)
	}
}

func (w *writerErr) get() error {
	if e, ok := w.v.Load().(error); ok {
		return e
	}
	return nil
}

// ioChunk is the upper bound on a flusher's staging buffer.
const ioChunk = 1 << 20

// chunkSlices splits one contiguous memory region into ioChunk-sized
// slices, the batch a flusher hands to a single vectored run write.
func chunkSlices(region []byte) [][]byte {
	bufs := make([][]byte, 0, (len(region)+ioChunk-1)/ioChunk)
	for off := 0; off < len(region); off += ioChunk {
		end := off + ioChunk
		if end > len(region) {
			end = len(region)
		}
		bufs = append(bufs, region[off:end])
	}
	return bufs
}

// fanOutFlush runs one flushShard call per shard, concurrently when there is
// more than one shard, and combines their results. Shards write disjoint
// WriteRun regions of the same backup, which the disk layer guarantees is
// safe; the caller remains the sole writer of the image header.
func fanOutFlush(plan shardPlan, b *disk.Backup, flushShard func(s int, b *disk.Backup) (int, int64, error)) (objects int, bytes int64, err error) {
	if plan.count() == 1 {
		return flushShard(0, b)
	}
	objs := make([]int, plan.count())
	byts := make([]int64, plan.count())
	errs := make([]error, plan.count())
	plan.eachShard(func(s, _, _ int) {
		objs[s], byts[s], errs[s] = flushShard(s, b)
	})
	for s := range errs {
		if errs[s] != nil {
			return 0, 0, errs[s]
		}
		objects += objs[s]
		bytes += byts[s]
	}
	return objects, bytes, nil
}

// dirtyMaps is the bookkeeping the dirty-set methods share: one bitmap per
// backup, bit i set when object i's latest value may be missing from that
// backup's image. Each map stands on its own — it over-approximates what its
// backup lacks independently of what happened to the other family — so a
// cut redirected to the survivor needs no re-merge. The words are touched
// only by the apply path (mark) and by the cut, which runs after the apply
// workers join; per-shard word ownership means no two goroutines ever touch
// the same word concurrently.
type dirtyMaps struct{ dirty [2][]uint64 }

// init allocates the maps with every object dirty: on a cold start nothing
// is on disk, and after recovery the images' exact dirty sets are unknown,
// so the next checkpoint of each backup rewrites everything.
func (d *dirtyMaps) init(n int) {
	for i := range d.dirty {
		d.dirty[i] = make([]uint64, (n+63)/64)
		for w := range d.dirty[i] {
			d.dirty[i][w] = ^uint64(0)
		}
		trimTail(d.dirty[i], n)
	}
}

// mark dirties the objects of word w named by mask for both backups.
func (d *dirtyMaps) mark(w int32, mask uint64) {
	d.dirty[0][w] |= mask
	d.dirty[1][w] |= mask
}

func trimTail(words []uint64, n int) {
	if rem := uint(n) & 63; rem != 0 && len(words) > 0 {
		words[len(words)-1] &= 1<<rem - 1
	}
}

// runIter walks the set bits of a write set that fall in [pos, hi) — a
// shard's word-aligned object range — as maximal runs of consecutive
// objects in ascending order, straight from the bits: the sorted-write
// optimization's unit of I/O. A run continues across word boundaries and is
// clipped to hi.
type runIter struct {
	words   []uint64
	pos, hi int
}

// next returns the next run [start, end), or ok false when none is left.
func (it *runIter) next() (start, end int, ok bool) {
	for it.pos < it.hi {
		rest := atomic.LoadUint64(&it.words[it.pos>>6]) >> (uint(it.pos) & 63)
		if rest == 0 {
			it.pos = (it.pos>>6 + 1) << 6
			continue
		}
		it.pos += bits.TrailingZeros64(rest)
		if it.pos >= it.hi {
			break
		}
		start = it.pos
		for it.pos < it.hi {
			left := 64 - it.pos&63 // bits from pos to the end of its word
			ones := bits.TrailingZeros64(^(atomic.LoadUint64(&it.words[it.pos>>6]) >> (uint(it.pos) & 63)))
			it.pos += ones
			if ones < left {
				break
			}
		}
		if it.pos > it.hi {
			it.pos = it.hi
		}
		return start, it.pos, true
	}
	return 0, 0, false
}
