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
// interface. onUpdate runs on the apply path before each object write — on
// the mutator goroutine, or on the shard's apply worker under
// ApplyTickParallel (never two goroutines for the same shard). endTick runs
// on the coordinating goroutine at tick boundaries, after all apply workers
// have joined.
type checkpointer interface {
	onUpdate(obj int32)
	// endTick may begin a checkpoint; it returns the synchronous pause.
	endTick(tick uint64) time.Duration
	// completed returns the channel of finished checkpoints.
	completed() <-chan CheckpointInfo
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
	// bootstrap hands out the backup a standby's bootstrap image should be
	// written to and the epoch to stamp it with, advancing the
	// checkpointer's rotation so the next checkpoint targets the other
	// backup with a later epoch. Called once, before any tick, on the
	// opening goroutine. ok is false when the mode has no backups.
	bootstrap() (b *disk.Backup, epoch uint64, ok bool)
}

// nopCheckpointer is the ModeNone baseline.
type nopCheckpointer struct {
	st   CPStats
	done chan CheckpointInfo
}

func newNop() *nopCheckpointer {
	return &nopCheckpointer{done: make(chan CheckpointInfo)}
}

func (n *nopCheckpointer) onUpdate(int32) {}
func (n *nopCheckpointer) bootstrap() (*disk.Backup, uint64, bool) {
	return nil, 0, false
}
func (n *nopCheckpointer) endTick(uint64) time.Duration     { return 0 }
func (n *nopCheckpointer) completed() <-chan CheckpointInfo { return n.done }
func (n *nopCheckpointer) close() error                     { close(n.done); return nil }
func (n *nopCheckpointer) stats() *CPStats                  { return &n.st }
func (n *nopCheckpointer) err() error                       { return nil }
func (n *nopCheckpointer) degraded() bool                   { return false }

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

// flushChunk sizes a shard flusher's staging buffer. The staging may run at
// most one chunk ahead of actual device I/O — that lockstep is what keeps
// the pre-image window (cursor < obj) open for the whole flush rather than
// the few microseconds an unbounded in-memory staging pass takes. Target
// ≥16 device writes per shard image so the window tracks real write
// progress even at test scale, capped at ioChunk for production states.
func flushChunk(plan shardPlan, objSize int) int {
	c := plan.perShard() * objSize / 16
	if c > ioChunk {
		c = ioChunk
	}
	c -= c % objSize
	if c < objSize {
		c = objSize
	}
	return c
}

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
func fanOutFlush(n int, flushShard func(s int) (int, int64, error)) (objects int, bytes int64, err error) {
	if n == 1 {
		return flushShard(0)
	}
	objs := make([]int, n)
	byts := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			objs[i], byts[i], errs[i] = flushShard(i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		objects += objs[i]
		bytes += byts[i]
	}
	return objects, bytes, nil
}

// naiveJob asks the writer to flush the shadow buffer.
type naiveJob struct {
	epoch uint64
	tick  uint64
	begin time.Time
	pause time.Duration
}

// naiveCP implements ModeNaiveSnapshot. With more than one shard the eager
// full-state copy and the flush both fan out across the shards' disjoint
// slab regions.
type naiveCP struct {
	store    *Store
	backups  [2]*disk.Backup
	plan     shardPlan
	shadow   []byte
	epoch    uint64
	cur      int // backup the writer targets next (writer-owned after start)
	inFlight atomic.Bool
	jobs     chan naiveJob
	done     chan CheckpointInfo
	wg       sync.WaitGroup
	st       CPStats
	werr     writerErr
	sick     sickSet
}

func newNaive(store *Store, backups [2]*disk.Backup, startEpoch uint64, firstBackup int, plan shardPlan) *naiveCP {
	c := &naiveCP{
		store:   store,
		backups: backups,
		plan:    plan,
		shadow:  make([]byte, len(store.Slab())),
		epoch:   startEpoch,
		cur:     firstBackup,
		jobs:    make(chan naiveJob, 1),
		done:    make(chan CheckpointInfo, 8),
	}
	c.wg.Add(1)
	go c.writer()
	return c
}

// rotateForBootstrap is the one place the standby-bootstrap rule lives for
// every double-backup checkpointer: seed the backup the next checkpoint
// would have targeted, stamp it with the next epoch, and leave the rotation
// pointing at the other backup — exactly the state recovery sets up after
// restoring an image.
func rotateForBootstrap(backups [2]*disk.Backup, cur *int, epoch *uint64) (*disk.Backup, uint64) {
	b := backups[*cur]
	*cur ^= 1
	*epoch++
	return b, *epoch
}

func (c *naiveCP) onUpdate(int32) {}

func (c *naiveCP) bootstrap() (*disk.Backup, uint64, bool) {
	b, e := rotateForBootstrap(c.backups, &c.cur, &c.epoch)
	return b, e, true
}

func (c *naiveCP) endTick(tick uint64) time.Duration {
	if c.inFlight.Load() || c.werr.get() != nil {
		return 0
	}
	begin := time.Now()
	// The quiescent eager copy: the pause. Parallel across shards.
	if c.plan.count() == 1 {
		copy(c.shadow, c.store.Slab())
	} else {
		var wg sync.WaitGroup
		sz := c.store.ObjSize()
		for s := 0; s < c.plan.count(); s++ {
			lo, hi := c.plan.objRange(s)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				copy(c.shadow[lo*sz:hi*sz], c.store.SlabRange(lo, hi))
			}(lo, hi)
		}
		wg.Wait()
	}
	pause := time.Since(begin)
	c.st.recordPause(pause)
	c.st.PauseBytes.Add(int64(len(c.shadow)))
	c.epoch++
	c.inFlight.Store(true)
	c.jobs <- naiveJob{epoch: c.epoch, tick: tick, begin: begin, pause: pause}
	return pause
}

func (c *naiveCP) writer() {
	defer c.wg.Done()
	for job := range c.jobs {
		// Target the rotation's backup, or the survivor when it is sick.
		// On a failed flush the job is abandoned (its image is already
		// invalidated by the incomplete header), never retried — the next
		// endTick snapshots fresh state for the survivor.
		target := c.sick.redirect(c.cur)
		c.cur = target ^ 1
		b := c.backups[target]
		if err := c.flush(b, job); err != nil {
			if !c.sick.markSick(target) {
				c.werr.set(err)
			}
			telDegraded.Set(1)
			c.inFlight.Store(false)
			continue
		}
		c.st.Checkpoints.Add(1)
		c.st.BytesWritten.Add(int64(len(c.shadow)))
		info := CheckpointInfo{
			Epoch:    job.epoch,
			AsOfTick: job.tick,
			Duration: time.Since(job.begin),
			Pause:    job.pause,
			Objects:  c.store.NumObjects(),
			Bytes:    int64(len(c.shadow)),
		}
		c.inFlight.Store(false)
		c.done <- info
	}
}

func (c *naiveCP) flush(b *disk.Backup, job naiveJob) error {
	hdr := disk.Header{Epoch: job.epoch, AsOfTick: job.tick}
	if err := b.WriteHeader(hdr); err != nil { // invalidate image
		return err
	}
	sz := c.store.ObjSize()
	_, _, err := fanOutFlush(c.plan.count(), func(s int) (int, int64, error) {
		// The shadow is immutable while the job is in flight, so each shard
		// writes its region straight out of it: ioChunk slices batched into
		// one vectored write per shard.
		lo, hi := c.plan.objRange(s)
		region := c.shadow[lo*sz : hi*sz]
		if err := b.WriteRunVec(lo, chunkSlices(region)); err != nil {
			return 0, 0, err
		}
		return hi - lo, int64(len(region)), nil
	})
	if err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return err
	}
	hdr.Complete = true
	return b.WriteHeader(hdr) // commit point
}

func (c *naiveCP) completed() <-chan CheckpointInfo { return c.done }
func (c *naiveCP) stats() *CPStats                  { return &c.st }
func (c *naiveCP) err() error                       { return c.werr.get() }
func (c *naiveCP) degraded() bool                   { return c.sick.any() }

func (c *naiveCP) close() error {
	close(c.jobs)
	c.wg.Wait()
	close(c.done)
	return c.werr.get()
}

// couJob asks the writer to flush the current write set.
type couJob struct {
	epoch  uint64
	tick   uint64
	backup int
	begin  time.Time
	pause  time.Duration
}

// couStripes is the per-shard stripe lock count (power of two).
const couStripes = 256

// couShard is the per-shard flush state of couCP. The bitmaps and side
// buffer stay global (shards own disjoint, word-aligned slices of them);
// what each shard owns privately is its stripe locks, its flush cursor and
// its persistent staging buffer.
type couShard struct {
	lo, hi int          // object range [lo, hi)
	cursor atomic.Int64 // objects below cursor are staged (or not in the set)
	locks  []sync.Mutex
	stage  []byte // pooled across checkpoints; cap flushChunk
}

// couCP implements ModeCopyOnUpdate (and, with fullSet, ModeDribble).
//
// Concurrency protocol:
//   - dirty bitmaps are touched only by the apply path (onUpdate sets bits
//     in the updated object's shard words; endTick snapshots and clears
//     after the apply workers join) — per-shard word ownership means no two
//     goroutines ever touch the same word concurrently.
//   - writeSet is published by endTick with atomic stores before the job is
//     sent (the channel send is the happens-before edge) and read with
//     atomic loads by onUpdate and the shard flushers while in flight.
//   - handled bits are set by the apply path and read by the flushers using
//     atomic word operations, under the object's stripe lock.
//   - each shard's cursor publishes its flusher's progress: every write-set
//     object below it has been staged. onUpdate skips the pre-image copy
//     for those. The flusher stages at most one chunk ahead of device I/O
//     (see flushChunk), so the cursor tracks real write progress.
//   - side holds pre-images; slots are written by the apply path and read
//     by the flusher under the object's stripe lock.
type couCP struct {
	store   *Store
	backups [2]*disk.Backup
	plan    shardPlan
	// fullSet makes every checkpoint write the whole state (Dribble mode);
	// otherwise only the dirty set w.r.t. the target backup is written.
	fullSet bool

	dirty    [2][]uint64
	writeSet []uint64
	handled  []uint64
	side     []byte
	shards   []couShard
	chunk    int

	inFlight atomic.Bool
	epoch    uint64
	cur      int // backup to flush next (coordinator-owned; passed in job)

	jobs chan couJob
	done chan CheckpointInfo
	wg   sync.WaitGroup
	st   CPStats
	werr writerErr
	sick sickSet
}

func newCOU(store *Store, backups [2]*disk.Backup, startEpoch uint64, firstBackup int, plan shardPlan) *couCP {
	n := store.NumObjects()
	words := (n + 63) / 64
	c := &couCP{
		store:    store,
		backups:  backups,
		plan:     plan,
		writeSet: make([]uint64, words),
		handled:  make([]uint64, words),
		side:     make([]byte, n*store.ObjSize()),
		chunk:    flushChunk(plan, store.ObjSize()),
		epoch:    startEpoch,
		cur:      firstBackup,
		jobs:     make(chan couJob, 1),
		done:     make(chan CheckpointInfo, 8),
	}
	c.shards = make([]couShard, plan.count())
	for s := range c.shards {
		lo, hi := plan.objRange(s)
		c.shards[s] = couShard{
			lo:    lo,
			hi:    hi,
			locks: make([]sync.Mutex, couStripes),
			stage: make([]byte, 0, c.chunk),
		}
	}
	for i := range c.dirty {
		c.dirty[i] = make([]uint64, words)
		for w := range c.dirty[i] {
			c.dirty[i][w] = ^uint64(0) // cold start: everything dirty
		}
		trimTail(c.dirty[i], n)
	}
	c.wg.Add(1)
	go c.writer()
	return c
}

func trimTail(words []uint64, n int) {
	if rem := uint(n) & 63; rem != 0 && len(words) > 0 {
		words[len(words)-1] &= 1<<rem - 1
	}
}

func (c *couCP) onUpdate(obj int32) {
	w, m := obj>>6, uint64(1)<<(uint(obj)&63)
	// Mark dirty for both backups (apply-path-owned bitmap words).
	c.dirty[0][w] |= m
	c.dirty[1][w] |= m
	if !c.inFlight.Load() {
		return
	}
	if atomic.LoadUint64(&c.writeSet[w])&m == 0 {
		return // not part of the in-flight image
	}
	sh := &c.shards[c.plan.shardOf(obj)]
	if sh.cursor.Load() > int64(obj) {
		return // shard flusher already staged this object
	}
	mu := &sh.locks[(int(obj)-sh.lo)&(couStripes-1)]
	mu.Lock()
	if atomic.LoadUint64(&c.handled[w])&m == 0 && sh.cursor.Load() <= int64(obj) {
		// First update of a not-yet-flushed write-set object: save the
		// checkpoint-consistent pre-image.
		sz := c.store.ObjSize()
		copy(c.side[int(obj)*sz:(int(obj)+1)*sz], c.store.ObjectBytes(int(obj)))
		orUint64(&c.handled[w], m)
		c.st.Copies.Add(1)
		telCopies.Inc()
		telCopyBytes.Add(uint64(sz))
	}
	mu.Unlock()
}

// orUint64 atomically ORs mask into *addr.
func orUint64(addr *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(addr)
		if old&mask == mask {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
	}
}

func (c *couCP) bootstrap() (*disk.Backup, uint64, bool) {
	b, e := rotateForBootstrap(c.backups, &c.cur, &c.epoch)
	return b, e, true
}

func (c *couCP) endTick(tick uint64) time.Duration {
	if c.inFlight.Load() || c.werr.get() != nil {
		return 0
	}
	begin := time.Now()
	// Target the rotation's backup, or the survivor when it is sick. The
	// dirty map is the target's own: it over-approximates the objects whose
	// latest value is missing from that backup's image independently of what
	// happened to the other family, so degrading needs no re-merge.
	backup := c.sick.redirect(c.cur)
	src := c.dirty[backup]
	for i, w := range src {
		// Snapshot the write set and clear the dirty map; updates during
		// the flush re-dirty objects for the next pass to this backup.
		// Dribble mode writes everything regardless of dirtiness.
		if c.fullSet {
			w = ^uint64(0)
		}
		atomic.StoreUint64(&c.writeSet[i], w)
		src[i] = 0
		atomic.StoreUint64(&c.handled[i], 0)
	}
	if c.fullSet {
		trimTail(c.writeSet, c.store.NumObjects())
	}
	// Publication order matters: rewind every shard cursor before raising
	// inFlight, so no onUpdate can observe the new flush with a stale
	// end-of-previous-flush cursor and skip a needed pre-image copy.
	for s := range c.shards {
		c.shards[s].cursor.Store(int64(c.shards[s].lo))
	}
	pause := time.Since(begin)
	c.st.recordPause(pause)
	c.st.PauseBytes.Add(int64(8 * len(src)))
	c.epoch++
	c.cur = backup ^ 1
	c.inFlight.Store(true)
	c.jobs <- couJob{epoch: c.epoch, tick: tick, backup: backup, begin: begin, pause: pause}
	return pause
}

func (c *couCP) writer() {
	defer c.wg.Done()
	for job := range c.jobs {
		info, err := c.flush(job)
		if err != nil {
			// The job is abandoned, not retried: the shard cursors advanced
			// during the failed flush, so a retry against the same write set
			// would mix tick states. The failed backup's header is already
			// invalid; the next endTick targets the survivor.
			if !c.sick.markSick(job.backup) {
				c.werr.set(err)
			}
			telDegraded.Set(1)
			c.inFlight.Store(false)
			continue
		}
		c.st.Checkpoints.Add(1)
		c.st.BytesWritten.Add(info.Bytes)
		c.inFlight.Store(false)
		c.done <- info
	}
}

// flush is the checkpoint coordinator: it performs the double-backup
// header-invalidate → data → sync → header-commit protocol itself, fanning
// the data phase out to one flusher per shard. The commit point is unchanged
// from the single-writer engine — one incomplete header before any data,
// one complete header after all shards' writes are synced.
func (c *couCP) flush(job couJob) (CheckpointInfo, error) {
	b := c.backups[job.backup]
	hdr := disk.Header{Epoch: job.epoch, AsOfTick: job.tick}
	if err := b.WriteHeader(hdr); err != nil {
		return CheckpointInfo{}, err
	}
	objects, bytes, err := fanOutFlush(len(c.shards), func(s int) (int, int64, error) {
		return c.flushShard(&c.shards[s], b)
	})
	if err != nil {
		return CheckpointInfo{}, err
	}
	if err := b.Sync(); err != nil {
		return CheckpointInfo{}, err
	}
	hdr.Complete = true
	if err := b.WriteHeader(hdr); err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{
		Epoch:    job.epoch,
		AsOfTick: job.tick,
		Duration: time.Since(job.begin),
		Pause:    job.pause,
		Objects:  objects,
		Bytes:    bytes,
	}, nil
}

// flushShard writes one shard's slice of the write set in offset order (the
// sorted-write optimization), iterating the bitmap word-by-word and
// coalescing contiguous dirty runs straight from the bits. Each object is
// staged under its stripe lock — the apply path's pre-image copy if one was
// taken, else the live slab bytes — and the chunk-sized staging buffer is
// written out as soon as it fills, so staging never runs more than one
// chunk ahead of device I/O.
func (c *couCP) flushShard(sh *couShard, b *disk.Backup) (int, int64, error) {
	sz := c.store.ObjSize()
	stage := sh.stage[:0]
	defer func() { sh.stage = stage[:0] }() // keep the pooled buffer
	runStart := -1
	objects := 0
	var bytes int64

	emit := func() error {
		if runStart < 0 || len(stage) == 0 {
			return nil
		}
		if err := b.WriteRun(runStart, stage); err != nil {
			return err
		}
		bytes += int64(len(stage))
		runStart += len(stage) / sz
		stage = stage[:0]
		return nil
	}

	loWord, hiWord := sh.lo>>6, (sh.hi+63)/64
	for wi := loWord; wi < hiWord; wi++ {
		w := atomic.LoadUint64(&c.writeSet[wi])
		base := wi << 6
		if w == 0 {
			if err := emit(); err != nil {
				return 0, 0, err
			}
			runStart = -1
			sh.cursor.Store(int64(base + 64))
			continue
		}
		for bit := 0; bit < 64; {
			rest := w >> uint(bit)
			if rest == 0 {
				// Trailing gap: the pending run (if any) ends inside this
				// word, so it must not merge with the next word's first run.
				if err := emit(); err != nil {
					return 0, 0, err
				}
				runStart = -1
				sh.cursor.Store(int64(base + 64))
				break
			}
			if skip := bits.TrailingZeros64(rest); skip > 0 {
				// Gap: the pending run (if any) ends here.
				if err := emit(); err != nil {
					return 0, 0, err
				}
				runStart = -1
				bit += skip
				sh.cursor.Store(int64(base + bit))
				continue
			}
			// A run of consecutive dirty objects, possibly continuing into
			// the next word.
			run := bits.TrailingZeros64(^rest)
			if base+bit+run > sh.hi {
				run = sh.hi - (base + bit)
			}
			for k := 0; k < run; k++ {
				obj := base + bit + k
				if runStart < 0 {
					runStart = obj
				}
				mu := &sh.locks[(obj-sh.lo)&(couStripes-1)]
				mu.Lock()
				if atomic.LoadUint64(&c.handled[obj>>6])&(uint64(1)<<(uint(obj)&63)) != 0 {
					stage = append(stage, c.side[obj*sz:(obj+1)*sz]...)
				} else {
					stage = append(stage, c.store.ObjectBytes(obj)...)
				}
				sh.cursor.Store(int64(obj) + 1)
				mu.Unlock()
				objects++
				if len(stage) >= c.chunk {
					if err := emit(); err != nil {
						return 0, 0, err
					}
				}
			}
			bit += run
		}
	}
	if err := emit(); err != nil {
		return 0, 0, err
	}
	return objects, bytes, nil
}

func (c *couCP) completed() <-chan CheckpointInfo { return c.done }
func (c *couCP) stats() *CPStats                  { return &c.st }
func (c *couCP) err() error                       { return c.werr.get() }
func (c *couCP) degraded() bool                   { return c.sick.any() }

func (c *couCP) close() error {
	close(c.jobs)
	c.wg.Wait()
	close(c.done)
	return c.werr.get()
}

// markAllDirty is used after recovery: the disk images' exact dirty sets are
// unknown, so the next checkpoint of each backup rewrites everything.
func (c *couCP) markAllDirty() {
	n := c.store.NumObjects()
	for i := range c.dirty {
		for w := range c.dirty[i] {
			c.dirty[i][w] = ^uint64(0)
		}
		trimTail(c.dirty[i], n)
	}
}
