package engine

import (
	"math/bits"
	"runtime"
	"sync"
)

// The sharded engine partitions the object space into contiguous,
// word-aligned, power-of-two-sized ranges. Each shard owns its slice of the
// dirty bitmaps, the pre-image side buffer, the stripe locks and a flush
// cursor, so S checkpoint flushers — and S restore readers and replay
// appliers at recovery — run with zero cross-shard contention: no two shards
// ever touch the same bitmap word, slab byte, or backup region. The live tick
// is applied by its one mutator goroutine, which partitions the batch itself,
// serially, at the bitmap-word grain (Engine.applyBatch): a per-shard apply
// pool that had every worker scan and filter the whole batch was measured
// slower than that at two cores and deleted. See DESIGN.md ("Sharding
// layout").

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
