package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

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
	store   *Store
	backups [2]*disk.Backup
	plan    shardPlan

	dirty    [2][]uint64 // apply-path-owned
	writeSet []uint64    // handed read-only to the writer per job
	side     []byte      // eager copies, written before the job is sent

	epoch    uint64
	cur      int
	inFlight atomic.Bool

	jobs chan couJob
	done chan CheckpointInfo
	wg   sync.WaitGroup
	st   CPStats
	werr writerErr
	sick sickSet
}

func newAtomicCopy(store *Store, backups [2]*disk.Backup, startEpoch uint64, firstBackup int, plan shardPlan) *atomicCP {
	n := store.NumObjects()
	words := (n + 63) / 64
	c := &atomicCP{
		store:    store,
		backups:  backups,
		plan:     plan,
		writeSet: make([]uint64, words),
		side:     make([]byte, n*store.ObjSize()),
		epoch:    startEpoch,
		cur:      firstBackup,
		jobs:     make(chan couJob, 1),
		done:     make(chan CheckpointInfo, 8),
	}
	for i := range c.dirty {
		c.dirty[i] = make([]uint64, words)
		for w := range c.dirty[i] {
			c.dirty[i][w] = ^uint64(0)
		}
		trimTail(c.dirty[i], n)
	}
	c.wg.Add(1)
	go c.writer()
	return c
}

func (c *atomicCP) onUpdate(obj int32) {
	w, m := obj>>6, uint64(1)<<(uint(obj)&63)
	c.dirty[0][w] |= m
	c.dirty[1][w] |= m
}

func (c *atomicCP) bootstrap() (*disk.Backup, uint64, bool) {
	b, e := rotateForBootstrap(c.backups, &c.cur, &c.epoch)
	return b, e, true
}

// copyRange snapshots and clears one shard's dirty words, eagerly copying
// every dirty object's bytes to the side buffer.
func (c *atomicCP) copyRange(src []uint64, loWord, hiWord int) {
	sz := c.store.ObjSize()
	slab := c.store.Slab()
	copied := 0
	for wi := loWord; wi < hiWord; wi++ {
		word := src[wi]
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
	c.st.PauseBytes.Add(int64(copied))
}

func (c *atomicCP) endTick(tick uint64) time.Duration {
	if c.inFlight.Load() || c.werr.get() != nil {
		return 0
	}
	begin := time.Now()
	// The eager copy: every dirty object's bytes move to the side buffer
	// during the natural quiescence at the end of the tick — in parallel
	// across the shards' disjoint word ranges. The target is the rotation's
	// backup, or the survivor when it went sick mid-flush; each backup's
	// dirty map stands on its own, so the redirect needs no re-merge.
	backup := c.sick.redirect(c.cur)
	src := c.dirty[backup]
	if c.plan.count() == 1 {
		c.copyRange(src, 0, len(src))
	} else {
		var wg sync.WaitGroup
		for s := 0; s < c.plan.count(); s++ {
			lo, hi := c.plan.objRange(s)
			wg.Add(1)
			go func(loWord, hiWord int) {
				defer wg.Done()
				c.copyRange(src, loWord, hiWord)
			}(lo>>6, (hi+63)/64)
		}
		wg.Wait()
	}
	pause := time.Since(begin)
	c.st.recordPause(pause)
	c.epoch++
	c.cur = backup ^ 1
	c.inFlight.Store(true)
	c.jobs <- couJob{epoch: c.epoch, tick: tick, backup: backup, begin: begin, pause: pause}
	return pause
}

func (c *atomicCP) writer() {
	defer c.wg.Done()
	for job := range c.jobs {
		info, err := c.flush(job)
		if err != nil {
			// Abandon, never retry: the failed backup's header is already
			// invalid, and the next endTick re-snapshots for the survivor.
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

// flush coordinates the commit protocol and fans the data phase out to one
// flusher per shard writing the eager copies in offset order.
func (c *atomicCP) flush(job couJob) (CheckpointInfo, error) {
	b := c.backups[job.backup]
	hdr := disk.Header{Epoch: job.epoch, AsOfTick: job.tick}
	if err := b.WriteHeader(hdr); err != nil {
		return CheckpointInfo{}, err
	}
	objects, bytes, err := fanOutFlush(c.plan.count(), func(s int) (int, int64, error) {
		lo, hi := c.plan.objRange(s)
		return c.flushShard(b, lo, hi)
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

// flushShard coalesces contiguous dirty runs from the write-set words and
// writes each run directly out of the side buffer — zero staging copies,
// since the side buffer is immutable while the job is in flight. Long runs
// go out as one vectored write of ioChunk slices.
func (c *atomicCP) flushShard(b *disk.Backup, lo, hi int) (int, int64, error) {
	sz := c.store.ObjSize()
	objects := 0
	var bytes int64
	runStart, runEnd := -1, -1 // current run [runStart, runEnd)

	emit := func() error {
		if runStart < 0 {
			return nil
		}
		region := c.side[runStart*sz : runEnd*sz]
		if err := b.WriteRunVec(runStart, chunkSlices(region)); err != nil {
			return err
		}
		objects += runEnd - runStart
		bytes += int64(len(region))
		runStart, runEnd = -1, -1
		return nil
	}

	loWord, hiWord := lo>>6, (hi+63)/64
	for wi := loWord; wi < hiWord; wi++ {
		w := c.writeSet[wi]
		if w == 0 {
			if err := emit(); err != nil {
				return 0, 0, err
			}
			continue
		}
		base := wi << 6
		for bit := 0; bit < 64; {
			rest := w >> uint(bit)
			if rest == 0 {
				// Trailing gap: end the pending run so it cannot merge
				// with the next word's first run across the gap.
				if err := emit(); err != nil {
					return 0, 0, err
				}
				break
			}
			if skip := bits.TrailingZeros64(rest); skip > 0 {
				if err := emit(); err != nil {
					return 0, 0, err
				}
				bit += skip
				continue
			}
			run := bits.TrailingZeros64(^rest)
			if base+bit+run > hi {
				run = hi - (base + bit)
			}
			if runStart < 0 {
				runStart = base + bit
			}
			runEnd = base + bit + run
			bit += run
		}
	}
	if err := emit(); err != nil {
		return 0, 0, err
	}
	return objects, bytes, nil
}

func (c *atomicCP) completed() <-chan CheckpointInfo { return c.done }
func (c *atomicCP) stats() *CPStats                  { return &c.st }
func (c *atomicCP) err() error                       { return c.werr.get() }
func (c *atomicCP) degraded() bool                   { return c.sick.any() }

func (c *atomicCP) close() error {
	close(c.jobs)
	c.wg.Wait()
	close(c.done)
	return c.werr.get()
}

func (c *atomicCP) markAllDirty() {
	n := c.store.NumObjects()
	for i := range c.dirty {
		for w := range c.dirty[i] {
			c.dirty[i][w] = ^uint64(0)
		}
		trimTail(c.dirty[i], n)
	}
}
