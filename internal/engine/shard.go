package engine

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/wal"
)

// The sharded engine partitions the object space into contiguous,
// word-aligned, power-of-two-sized ranges. Each shard owns its slice of the
// dirty bitmaps, the pre-image side buffer, the stripe locks and a flush
// cursor, so S apply workers and S checkpoint flushers run with zero
// cross-shard contention: no two shards ever touch the same bitmap word,
// slab byte, or backup region. See DESIGN.md ("Sharding layout").

// shardPlan describes the partition. perShard is a power of two and a
// multiple of 64 (one bitmap word), so shardOf is a shift and every shard's
// word range in the global bitmaps is exclusive to it.
type shardPlan struct {
	n      int  // total objects
	shards int  // effective shard count
	shift  uint // log2(objects per shard)
}

// makeShardPlan partitions n objects into at most requested shards.
// requested <= 0 means GOMAXPROCS. The request is rounded down to a power
// of two and shrunk until each shard spans at least one bitmap word, so
// tiny states fold to fewer shards than asked for.
func makeShardPlan(n, requested int) shardPlan {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		requested = 1
	}
	// Round the request down to a power of two.
	requested = 1 << (bits.Len(uint(requested)) - 1)
	// Objects per shard: the smallest power of two ≥ ceil(n/requested),
	// floored at one bitmap word.
	target := (n + requested - 1) / requested
	shift := uint(bits.Len(uint(target - 1)))
	if target <= 1 {
		shift = 0
	}
	if shift < 6 {
		shift = 6
	}
	shards := (n + (1 << shift) - 1) >> shift
	if shards < 1 {
		shards = 1
	}
	return shardPlan{n: n, shards: shards, shift: shift}
}

// count returns the effective shard count.
func (p shardPlan) count() int { return p.shards }

// perShard returns the objects per shard (the last shard may own fewer).
func (p shardPlan) perShard() int { return 1 << p.shift }

// shardOf returns the shard owning an object.
func (p shardPlan) shardOf(obj int32) int { return int(uint32(obj) >> p.shift) }

// objRange returns the object range [lo, hi) owned by shard s.
func (p shardPlan) objRange(s int) (lo, hi int) {
	lo = s << p.shift
	hi = lo + (1 << p.shift)
	if hi > p.n {
		hi = p.n
	}
	return lo, hi
}

// eachShard runs fn once per shard with the shard's object range: inline
// for a single shard, otherwise one goroutine per shard, all joined before
// it returns. It is the fan-out of the tick-end copies and the image flush.
func (p shardPlan) eachShard(fn func(s, lo, hi int)) {
	if p.shards == 1 {
		fn(0, 0, p.n)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < p.shards; s++ {
		lo, hi := p.objRange(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s, lo, hi)
		}()
	}
	wg.Wait()
}

// applyPool is the engine's set of persistent tick-apply workers: one per
// shard, each applying only the updates whose object falls in its range.
// Every worker scans the whole batch and filters — the scan parallelizes
// with the workers, where a serial partitioning pass would not, and updates
// to the same cell keep their batch order because one shard sees them all.
type applyPool struct {
	work  []chan []wal.Update
	round sync.WaitGroup
}

// newApplyPool starts one worker per shard running apply(shard, batch).
func newApplyPool(shards int, apply func(shard int, batch []wal.Update)) *applyPool {
	p := &applyPool{work: make([]chan []wal.Update, shards)}
	for i := range p.work {
		ch := make(chan []wal.Update, 1)
		p.work[i] = ch
		go func(shard int, ch <-chan []wal.Update) {
			for batch := range ch {
				apply(shard, batch)
				p.round.Done()
			}
		}(i, ch)
	}
	return p
}

// run fans one batch out to every worker and blocks until all have applied
// their share. The WaitGroup join is the happens-before edge that lets the
// coordinator read the shards' dirty bitmaps in endTick without locks.
func (p *applyPool) run(batch []wal.Update) {
	p.round.Add(len(p.work))
	for _, ch := range p.work {
		ch <- batch
	}
	p.round.Wait()
}

// close stops the workers. run must not be called afterwards.
func (p *applyPool) close() {
	for _, ch := range p.work {
		close(ch)
	}
}
