package engine

import (
	"runtime"
	"sync"

	"repro/internal/recovery"
)

// The sharded engine partitions the object space into contiguous,
// word-aligned ranges of as near equal size as the 64-object bitmap word
// allows. Each shard owns its slice of the dirty bitmaps, the pre-image side
// buffer, the stripe locks and a flush cursor, so S checkpoint flushers — and
// S restore-and-replay shards at recovery — run with zero
// cross-shard contention: no two shards ever touch the same bitmap word, slab
// byte, or backup region. The live tick is applied by its one mutator
// goroutine, which partitions the batch itself, serially, at the bitmap-word
// grain (Engine.bucketBatch): a per-shard apply pool that had every worker
// scan and filter the whole batch was measured slower than that at two cores
// and deleted. See DESIGN.md ("Sharding layout").

// shardPlan describes the partition: every shard but the last spans words
// bitmap words (64 objects each), the last the rest.
type shardPlan struct {
	n      int // total objects
	shards int // effective shard count
	words  int // bitmap words per shard
}

// makeShardPlan partitions n objects into at most requested shards of
// ⌈W/requested⌉ bitmap words each, W being the words n objects span.
// requested <= 0 means GOMAXPROCS. A shard spans at least one word, so tiny
// states fold to fewer shards than asked for.
func makeShardPlan(n, requested int) shardPlan {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	w := max((n+63)/64, 1)
	per := (w + requested - 1) / requested
	return shardPlan{n: n, shards: (w + per - 1) / per, words: per}
}

// count returns the effective shard count.
func (p shardPlan) count() int { return p.shards }

// perShard returns the objects per shard (the last shard may own fewer).
func (p shardPlan) perShard() int { return p.words << 6 }

// shardOf returns the shard owning an object.
func (p shardPlan) shardOf(obj int32) int { return int(uint32(obj)>>6) / p.words }

// objRange returns the object range [lo, hi) owned by shard s.
func (p shardPlan) objRange(s int) (lo, hi int) {
	lo = s * p.perShard()
	return lo, min(lo+p.perShard(), p.n)
}

// ranges returns every shard's object range, in order: the partition the
// recovery pipeline restores and replays by.
func (p shardPlan) ranges() []recovery.ShardRange {
	out := make([]recovery.ShardRange, p.count())
	for s := range out {
		out[s].Lo, out[s].Hi = p.objRange(s)
	}
	return out
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
