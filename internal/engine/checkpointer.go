package engine

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
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
// applyBatch, and with whole-word masks from a range install. endTick runs on the same goroutine at tick boundaries.
type checkpointer interface {
	onWord(w int32, mask uint64)
	// endTick may begin a checkpoint; it returns the synchronous pause, and
	// wal.ErrAhead when the degrade anchor held the cut off (logState).
	endTick(tick uint64) (time.Duration, error)
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
	// supersede abandons the in-flight image if it is older than tick; the
	// next cut goes back to its backup (see DESIGN.md "Superseding a stale
	// flush").
	supersede(tick uint64)
	// pin holds cuts off the backup with the newest complete image and
	// returns it, -1 for none; unpin releases it. waitPin, on endTick's
	// goroutine, waits out a pin that held the last cut off and reports
	// whether there was one.
	pin() int
	unpin()
	waitPin() bool
}

// cpEvent is the writer's report on one checkpoint: the committed image's
// info, or abandoned when the flush failed or was superseded. The engine
// books the first kind; the second only wakes CheckpointNow.
type cpEvent struct {
	CheckpointInfo
	abandoned bool
}

// nopCheckpointer is the ModeNone baseline. Nothing writes its backups, so
// the image it restored at open (restored, -1 for none) stays the newest.
type nopCheckpointer struct {
	st       CPStats
	done     chan cpEvent
	restored int
}

func (n *nopCheckpointer) onWord(int32, uint64)                  {}
func (n *nopCheckpointer) supersede(uint64)                      {}
func (n *nopCheckpointer) pin() int                              { return n.restored }
func (n *nopCheckpointer) unpin()                                {}
func (n *nopCheckpointer) waitPin() bool                         { return false }
func (n *nopCheckpointer) endTick(uint64) (time.Duration, error) { return 0, nil }
func (n *nopCheckpointer) completed() <-chan cpEvent             { return n.done }
func (n *nopCheckpointer) close() error                          { close(n.done); return nil }
func (n *nopCheckpointer) stats() *CPStats                       { return &n.st }
func (n *nopCheckpointer) err() error                            { return nil }
func (n *nopCheckpointer) degraded() bool                        { return false }

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
	// After a superseded image (redo) it also adds that image's write set.
	cut(target int) (pauseBytes int64)
	// flushShard writes shard s's share of the cut image to b, in ascending
	// offset order, and returns the objects and bytes written. The writer
	// runs one call per shard concurrently.
	flushShard(s int, b *disk.Backup) (objects int, bytes int64, err error)
	// written returns the cut image's write set, one bit per object, or nil
	// when the image is the whole state. The writer reads it while the job
	// is in flight, when nothing writes it.
	written() []uint64
}

// imageSeed is what the engine knows of one backup's image when it opens
// (see seedImages): words has one bit per bitmap word, set where the image
// may hold a non-zero byte or may differ from the state; blank marks a
// device with no byte past its header.
type imageSeed struct {
	words []uint64
	blank bool
}

// has reports whether word w's bit is set.
func (s imageSeed) has(w int) bool { return s.words[w>>6]&(1<<(uint(w)&63)) != 0 }

// newCheckpointer builds the checkpointer for mode: the strategy's own
// buffers, then the shared coordinator around them. A startEpoch above 0 is
// the epoch of the image restored from the backup other than firstBackup.
// seeds start each backup's dirty and populated maps; log is nil on an
// engine without one.
func newCheckpointer(mode Mode, store *Store, backups [2]*disk.Backup, startEpoch uint64, firstBackup int, plan shardPlan, seeds [2]imageSeed, log *wal.Log) checkpointer {
	var (
		s strategy
		c *coordinator
	)
	switch mode {
	case ModeNaiveSnapshot:
		cp := &naiveCP{shadow: make([]byte, len(store.Slab()))}
		s, c = cp, &cp.coordinator
	case ModeCopyOnUpdate, ModeDribble:
		cp := newCOU(store, plan, mode == ModeDribble, seeds)
		s, c = cp, &cp.coordinator
	case ModeAtomicCopy:
		cp := newAtomicCopy(store, seeds)
		s, c = cp, &cp.coordinator
	default:
		n := &nopCheckpointer{done: make(chan cpEvent), restored: -1}
		if startEpoch > 0 {
			n.restored = firstBackup ^ 1
		}
		return n
	}
	c.method, c.store, c.backups, c.plan = s, store, backups, plan
	c.populated = [2][]uint64{seeds[0].words, seeds[1].words}
	c.epoch, c.cur, c.log = startEpoch, firstBackup, log
	c.images[firstBackup^1].Store(startEpoch)
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
// That first degraded cut invalidates the only complete image while the log
// may be pruned past the state's start, so it is anchored first: the whole
// state goes to the log as one synced install record, and from then on the
// retained log alone rebuilds the state. A failed anchor is fatal, but one
// the log is ahead of only holds the cut off (logState): until then the
// survivor's image and the unpruned log still rebuild the state.
type coordinator struct {
	method  strategy
	store   *Store
	backups [2]*disk.Backup
	plan    shardPlan
	log     *wal.Log // nil without one
	// populated holds each backup's populated map, one bit per bitmap word,
	// set where its file may hold a non-zero byte: the seed, ORed with every
	// write set flushed to it since. Only the writer touches it once it runs.
	populated [2][]uint64

	// epoch, cur (the backup the next checkpoint targets), jobTick, redo and
	// anchored belong to the goroutine that calls endTick; the writer sees
	// them only through jobs.
	epoch    uint64
	cur      int
	jobTick  uint64 // the in-flight image's tick
	redo     bool   // this cut rewrites a superseded image's backup
	anchored bool   // the degrade rule's install record is logged
	inFlight atomic.Bool
	// stale asks the flushers to abandon the in-flight image; when they did,
	// the writer stores its backup+1 in superseded before it lowers inFlight.
	stale      atomic.Bool
	superseded atomic.Int32

	jobs chan cpJob
	done chan cpEvent
	wg   sync.WaitGroup
	st   CPStats
	werr writerErr
	sick sickSet

	// The image pin (DESIGN.md "The image pin"): pinned is the pinned
	// backup+1 (0: none), cutting the backup+1 a cut has announced, until
	// its flush ends; each side stores its own before it loads the other's.
	// images holds each backup's complete image epoch (0: none); pinMu is
	// held for a pin's whole length, so one waits for the pin by taking it;
	// pinSkip, the backup+1 whose pin held the last cut off, belongs to
	// endTick's goroutine.
	pinned, cutting atomic.Int32
	images          [2]atomic.Uint64
	pinMu           sync.Mutex
	pinSkip         int32
}

// endTick begins a checkpoint unless one is in flight, the writer is dead
// or an image pin holds the target. The pause it returns is the strategy's
// cut and nothing else; the target is picked here, at the cut, so the dirty
// map a strategy cuts from is the target's own.
func (c *coordinator) endTick(tick uint64) (time.Duration, error) {
	c.pinSkip = 0
	if c.inFlight.Load() || c.werr.get() != nil {
		return 0, nil
	}
	if c.log != nil && c.sick.any() && !c.anchored {
		if err := c.logState(tick + 1); errors.Is(err, wal.ErrAhead) {
			return 0, err
		} else if err != nil {
			c.werr.set(err)
			return 0, nil
		}
		c.anchored = true
	}
	b := c.superseded.Load()
	cur := c.cur
	if b > 0 {
		cur = int(b - 1)
	}
	target := c.sick.redirect(cur)
	c.cutting.Store(int32(target) + 1)
	if c.pinned.Load() == int32(target)+1 {
		c.cutting.Store(0) // an image is being read off target
		c.pinSkip = int32(target) + 1
		return 0, nil
	}
	begin := time.Now()
	c.superseded.Store(0)
	c.redo, c.cur = b > 0, cur
	pauseBytes := c.method.cut(target)
	pause := time.Since(begin)
	c.st.recordPause(pause)
	c.st.PauseBytes.Add(pauseBytes)
	c.epoch++
	c.cur = target ^ 1
	c.jobTick = tick
	c.stale.Store(false)
	// Raised after the cut: whatever the cut published (write set, rewound
	// cursors) is in place before any onWord can observe the new flush.
	c.inFlight.Store(true)
	c.jobs <- cpJob{epoch: c.epoch, tick: tick, backup: target, begin: begin, pause: pause}
	return pause, nil
}

func (c *coordinator) writer() {
	defer c.wg.Done()
	for job := range c.jobs {
		info, err := c.writeImage(job, c.method.flushShard, c.method.written())
		switch {
		case errors.Is(err, errSuperseded):
			c.superseded.Store(int32(job.backup) + 1)
		case err != nil:
			if !c.sick.markSick(job.backup) {
				c.werr.set(err)
			}
			telDegraded.Set(1)
		}
		c.images[job.backup].Store(info.Epoch) // 0 when abandoned
		c.cutting.Store(0)
		c.inFlight.Store(false)
		c.done <- cpEvent{CheckpointInfo: info, abandoned: err != nil}
	}
}

// writeImage is the engine's only image-commit routine (see the commit
// protocol above; a standby's shipped image lands through disk.Install in
// the same order).
// written is the image's write set (nil: the whole state); it joins the
// backup's populated map before the first header, so both headers carry a
// map that bounds the file however far the flush gets.
func (c *coordinator) writeImage(job cpJob, flushShard func(s int, b *disk.Backup) (int, int64, error), written []uint64) (CheckpointInfo, error) {
	b := c.backups[job.backup]
	pop := c.populated[job.backup]
	for i, w := range written {
		if w != 0 {
			pop[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	if written == nil {
		for i := range pop {
			pop[i] = ^uint64(0)
		}
	}
	hdr := disk.Header{Epoch: job.epoch, AsOfTick: job.tick}
	if err := b.WriteHeaderMap(hdr, pop); err != nil { // invalidate the old image
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
	if err := b.WriteHeaderMap(hdr, pop); err != nil { // commit point
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

func (c *coordinator) pin() int {
	c.pinMu.Lock()
	for {
		b := 0
		if c.images[1].Load() > c.images[0].Load() {
			b = 1
		}
		if c.images[b].Load() == 0 {
			c.pinMu.Unlock()
			return -1
		}
		c.pinned.Store(int32(b) + 1)
		if c.cutting.Load() != int32(b)+1 {
			return b
		}
		c.pinned.Store(0) // a cut of b is under way: poll until its flush ends
		time.Sleep(time.Millisecond)
	}
}

func (c *coordinator) unpin() {
	c.pinned.Store(0)
	c.pinMu.Unlock()
}

// waitPinHook, when set, is called as waitPin parks behind a pin (a test
// hook: the caller has reached the pin and not returned).
var waitPinHook func()

func (c *coordinator) waitPin() bool {
	if c.pinSkip == 0 {
		return false
	}
	if waitPinHook != nil {
		waitPinHook()
	}
	c.pinMu.Lock() // the pinner holds it until unpin
	c.pinMu.Unlock()
	return true
}

// anchorChunk bounds one install record of the degrade rule's anchor, well
// under the log's record bound (a variable so tests can split small states).
var anchorChunk = 64 << 20

// logState is the degrade rule's anchor: the whole state, logged at tick next
// as install records of at most anchorChunk bytes, one buffer reused, then
// synced. The records must replay before tick next's own, so a log that
// already holds next — a logged cluster world dispatches ticks ahead of
// their apply — refuses them with wal.ErrAhead, and the cut waits for a
// tick end where the node has caught up with its log.
func (c *coordinator) logState(next uint64) error {
	var rec []byte
	n, per := c.store.NumObjects(), max(1, anchorChunk/c.store.ObjSize())
	err := c.log.AppendFirst(next, (n+per-1)/per, func(i int) []byte {
		lo, hi := i*per, min(i*per+per, n)
		rec = appendInstallRecord(rec[:0], lo, hi, c.store.SlabRange(lo, hi))
		return rec
	})
	if err != nil {
		return err
	}
	return c.log.Sync()
}

// errSuperseded is a flusher's answer to stale; it marks no backup sick.
var errSuperseded = errors.New("engine: checkpoint superseded")

func (c *coordinator) supersede(tick uint64) {
	if c.inFlight.Load() && c.jobTick < tick {
		c.stale.Store(true)
	}
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
		if errs[s] != nil && (err == nil || errors.Is(err, errSuperseded)) {
			err = errs[s] // a device error outranks a superseded shard
		}
		objects += objs[s]
		bytes += byts[s]
	}
	return objects, bytes, err
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

// init allocates the maps from the seeds (see seedImages): every object of
// a seeded word starts dirty, and so does the last object of a blank
// backup, whose write extends the first image to full length; every slot
// never written is a hole that reads back as zeros.
func (d *dirtyMaps) init(n int, seeds [2]imageSeed) {
	for i := range d.dirty {
		d.dirty[i] = make([]uint64, (n+63)/64)
		for w := range d.dirty[i] {
			if seeds[i].has(w) {
				d.dirty[i][w] = ^uint64(0)
			}
		}
		trimTail(d.dirty[i], n)
		if seeds[i].blank {
			d.dirty[i][(n-1)>>6] |= 1 << (uint(n-1) & 63)
		}
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
