package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
)

// The three strategies the coordinator runs (see checkpointer.go). Each keeps
// only what Table 1 of the paper says differs between the methods: its
// buffers, its tick-end cut, its update handler and its shard flusher.

// naiveCP implements ModeNaiveSnapshot: the cut copies the whole slab to a
// shadow buffer and the flush writes the shadow out. With more than one
// shard both fan out across the shards' disjoint slab regions.
type naiveCP struct {
	coordinator
	shadow []byte
}

func (c *naiveCP) onWord(int32, uint64) {}
func (c *naiveCP) written() []uint64    { return nil }

// cut is the quiescent eager copy of the full state: the pause.
func (c *naiveCP) cut(int) int64 {
	sz := c.store.ObjSize()
	c.plan.eachShard(func(_, lo, hi int) {
		copy(c.shadow[lo*sz:hi*sz], c.store.SlabRange(lo, hi))
	})
	return int64(len(c.shadow))
}

// flushShard writes the shard's region straight out of the shadow, which is
// immutable while the job is in flight: ioChunk slices batched into one
// vectored write.
func (c *naiveCP) flushShard(s int, b *disk.Backup) (int, int64, error) {
	lo, hi := c.plan.objRange(s)
	region := c.shadow[lo*c.store.ObjSize() : hi*c.store.ObjSize()]
	if err := b.WriteRunVec(lo, chunkSlices(region)); err != nil {
		return 0, 0, err
	}
	return hi - lo, int64(len(region)), nil
}

// couStripes is the per-shard stripe lock count (power of two).
const couStripes = 256

// couShard is the per-shard flush state of couCP. The bitmaps and side
// buffer stay global (shards own disjoint, word-aligned slices of them);
// what each shard owns privately is its stripe locks, its flush cursor and
// its persistent staging buffer.
type couShard struct {
	lo, hi int          // object range [lo, hi)
	cursor atomic.Int64 // write-set objects below cursor are staged
	locks  []sync.Mutex
	stage  []byte // pooled across checkpoints; cap flushChunk
}

// couCP implements ModeCopyOnUpdate (and, with fullSet, ModeDribble): the
// cut only snapshots bitmap words, the apply path saves a pre-image on the
// first update of an object the in-flight image still needs, and the flush
// stages each object from its pre-image or the live slab.
//
// Concurrency protocol:
//   - writeSet is published by cut with atomic stores before the job is
//     sent (the channel send is the happens-before edge) and read with
//     atomic loads by onWord and the shard flushers while in flight.
//   - handled bits are set by the apply path and read by the flushers using
//     atomic word operations, under the object's stripe lock.
//   - each shard's cursor publishes its flusher's progress: every write-set
//     object below it has been staged. onWord skips the pre-image copy
//     for those. The flusher stages at most one chunk ahead of device I/O
//     (see flushChunk), so the cursor tracks real write progress.
//   - side holds pre-images; slots are written by the apply path and read
//     by the flusher under the object's stripe lock.
type couCP struct {
	coordinator
	dirtyMaps
	// fullSet makes every checkpoint write the whole state (Dribble mode);
	// otherwise only the dirty set w.r.t. the target backup is written.
	fullSet bool

	writeSet []uint64
	handled  []uint64
	side     []byte
	shards   []couShard
	chunk    int
}

func newCOU(store *Store, plan shardPlan, fullSet bool, seeds [2]imageSeed) *couCP {
	n := store.NumObjects()
	words := (n + 63) / 64
	c := &couCP{
		fullSet:  fullSet,
		writeSet: make([]uint64, words),
		handled:  make([]uint64, words),
		side:     make([]byte, n*store.ObjSize()),
		shards:   make([]couShard, plan.count()),
		chunk:    flushChunk(plan, store.ObjSize()),
	}
	c.dirtyMaps.init(n, seeds)
	for s := range c.shards {
		sh := &c.shards[s]
		sh.lo, sh.hi = plan.objRange(s)
		sh.locks = make([]sync.Mutex, couStripes)
		sh.stage = make([]byte, 0, c.chunk)
	}
	return c
}

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

// onWord dirties the word's objects and, while a flush is in flight, saves
// the pre-image of each one the image still needs and has no pre-image of.
// handled is written only on the mutator goroutine (set here, cleared by
// cut), so the unlocked read below is exact and the stripe lock is taken once
// per object per checkpoint — the paper's Olock on first touch — never again
// for an object whose pre-image is already in the side buffer.
func (c *couCP) onWord(w int32, mask uint64) {
	c.mark(w, mask)
	if !c.inFlight.Load() {
		return
	}
	need := mask & atomic.LoadUint64(&c.writeSet[w]) &^ atomic.LoadUint64(&c.handled[w])
	if need == 0 {
		return // nothing here is part of the in-flight image and unsaved
	}
	sh := &c.shards[c.plan.shardOf(w<<6)]
	sz := c.store.ObjSize()
	for ; need != 0; need &= need - 1 {
		bit := bits.TrailingZeros64(need)
		obj, m := int(w)<<6+bit, uint64(1)<<uint(bit)
		if sh.cursor.Load() > int64(obj) {
			continue // shard flusher already staged this object
		}
		mu := &sh.locks[(obj-sh.lo)&(couStripes-1)]
		mu.Lock()
		c.st.Locks.Add(1)
		if atomic.LoadUint64(&c.handled[w])&m == 0 && sh.cursor.Load() <= int64(obj) {
			// First update of a not-yet-flushed write-set object: save the
			// checkpoint-consistent pre-image.
			copy(c.side[obj*sz:(obj+1)*sz], c.store.ObjectBytes(obj))
			orUint64(&c.handled[w], m)
			c.st.Copies.Add(1)
			telCopies.Inc()
			telCopyBytes.Add(uint64(sz))
		}
		mu.Unlock()
	}
}

func (c *couCP) written() []uint64 { return c.writeSet }

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

// cut snapshots the target's dirty map into the write set and clears it;
// updates during the flush re-dirty objects for the next pass to this
// backup. Dribble mode writes everything regardless of dirtiness. The pause
// is the bitmap words touched.
func (c *couCP) cut(target int) int64 {
	src := c.dirty[target]
	for i, w := range src {
		if c.fullSet {
			w = ^uint64(0)
		} else if c.redo {
			w |= atomic.LoadUint64(&c.writeSet[i])
		}
		atomic.StoreUint64(&c.writeSet[i], w)
		src[i] = 0
		atomic.StoreUint64(&c.handled[i], 0)
	}
	if c.fullSet {
		trimTail(c.writeSet, c.store.NumObjects())
	}
	// Publication order matters: every shard cursor is rewound before the
	// coordinator raises inFlight, so no onWord can observe the new flush
	// with a stale end-of-previous-flush cursor and skip a needed pre-image
	// copy.
	for s := range c.shards {
		c.shards[s].cursor.Store(int64(c.shards[s].lo))
	}
	return int64(8 * len(src))
}

// flushShard writes one shard's slice of the write set run by run, in
// offset order. Each object is staged under its stripe lock — the apply
// path's pre-image copy if one was taken, else the live slab bytes — and the
// chunk-sized staging buffer is written out as soon as it fills or its run
// ends, so staging never runs more than one chunk ahead of device I/O.
func (c *couCP) flushShard(s int, b *disk.Backup) (int, int64, error) {
	sh := &c.shards[s]
	sz := c.store.ObjSize()
	stage := sh.stage[:0]
	defer func() { sh.stage = stage[:0] }() // keep the pooled buffer
	objects := 0
	var bytes int64
	for it := (runIter{words: c.writeSet, pos: sh.lo, hi: sh.hi}); ; {
		start, end, ok := it.next()
		if !ok {
			return objects, bytes, nil
		}
		at := start // object the staging buffer begins at
		for obj := start; obj < end; obj++ {
			mu := &sh.locks[(obj-sh.lo)&(couStripes-1)]
			mu.Lock()
			if atomic.LoadUint64(&c.handled[obj>>6])&(uint64(1)<<(uint(obj)&63)) != 0 {
				stage = append(stage, c.side[obj*sz:(obj+1)*sz]...)
			} else {
				stage = append(stage, c.store.ObjectBytes(obj)...)
			}
			sh.cursor.Store(int64(obj) + 1)
			mu.Unlock()
			if len(stage) >= c.chunk || obj+1 == end {
				if c.stale.Load() {
					return 0, 0, errSuperseded
				}
				if err := b.WriteRun(at, stage); err != nil {
					return 0, 0, err
				}
				bytes += int64(len(stage))
				at, stage = obj+1, stage[:0]
			}
		}
		objects += end - start
	}
}

// atomicCP implements ModeAtomicCopy — the real counterpart of
// Atomic-Copy-Dirty-Objects (Section 3.2): at a quiescent tick end it
// eagerly copies the objects dirty with respect to the backup being written
// (the pause), then flushes the copies asynchronously with offset-sorted
// writes. Because the flush reads only the eager side copies, the writer
// never touches the live slab: no stripe locks, no cursor — exactly the
// paper's observation that Write-Copies-To-Stable-Storage "may be
// implemented without thread-safety concerns". Sharding parallelizes both
// halves: the eager copy fans out across the shards' disjoint word ranges
// at the tick boundary, and the flush runs one zero-copy flusher per shard
// writing dirty runs straight out of the immutable side buffer.
type atomicCP struct {
	coordinator
	dirtyMaps
	writeSet []uint64 // handed read-only to the writer per job
	side     []byte   // eager copies, written before the job is sent
}

func newAtomicCopy(store *Store, seeds [2]imageSeed) *atomicCP {
	n := store.NumObjects()
	c := &atomicCP{
		writeSet: make([]uint64, (n+63)/64),
		side:     make([]byte, n*store.ObjSize()),
	}
	c.dirtyMaps.init(n, seeds)
	return c
}

func (c *atomicCP) onWord(w int32, mask uint64) { c.mark(w, mask) }
func (c *atomicCP) written() []uint64           { return c.writeSet }

// cut is the eager copy: every object dirty for the target moves to the side
// buffer during the natural quiescence at the end of the tick, in parallel
// across the shards' disjoint word ranges.
func (c *atomicCP) cut(target int) int64 {
	src := c.dirty[target]
	var copied atomic.Int64
	c.plan.eachShard(func(_, lo, hi int) {
		copied.Add(c.copyRange(src, lo>>6, (hi+63)/64))
	})
	return copied.Load()
}

// copyRange snapshots and clears one shard's dirty words, eagerly copying
// every dirty object's bytes to the side buffer, and returns the bytes
// copied.
func (c *atomicCP) copyRange(src []uint64, loWord, hiWord int) int64 {
	sz := c.store.ObjSize()
	slab := c.store.Slab()
	copied := 0
	for wi := loWord; wi < hiWord; wi++ {
		word := src[wi]
		if c.redo {
			word |= c.writeSet[wi]
		}
		c.writeSet[wi] = word
		src[wi] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			obj := wi<<6 + b
			copy(c.side[obj*sz:(obj+1)*sz], slab[obj*sz:(obj+1)*sz])
			copied += sz
			word &= word - 1
		}
	}
	return int64(copied)
}

// flushShard writes each dirty run directly out of the side buffer — zero
// staging copies, since the side buffer is immutable while the job is in
// flight. Long runs go out as one vectored write of ioChunk slices.
func (c *atomicCP) flushShard(s int, b *disk.Backup) (int, int64, error) {
	lo, hi := c.plan.objRange(s)
	sz := c.store.ObjSize()
	objects := 0
	var bytes int64
	for it := (runIter{words: c.writeSet, pos: lo, hi: hi}); ; {
		start, end, ok := it.next()
		if !ok {
			return objects, bytes, nil
		}
		if c.stale.Load() {
			return 0, 0, errSuperseded
		}
		region := c.side[start*sz : end*sz]
		if err := b.WriteRunVec(start, chunkSlices(region)); err != nil {
			return 0, 0, err
		}
		objects += end - start
		bytes += int64(len(region))
	}
}
