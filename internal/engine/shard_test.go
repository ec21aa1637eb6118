package engine

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gamestate"
)

// shardTable is large enough (512 objects, 256 KB) that a 4-shard plan
// keeps 4 effective shards.
func shardTable() gamestate.Table {
	return gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
}

func TestShardPlanGeometry(t *testing.T) {
	cases := []struct {
		n, requested     int
		shards, perShard int
	}{
		{16, 1, 1, 64},       // tiny state folds to one shard
		{16, 4, 1, 64},       // even when more are requested
		{128, 1, 1, 128},     // single shard spans everything
		{128, 4, 2, 64},      // word floor caps the shard count
		{512, 4, 4, 128},     // even split
		{320, 4, 3, 128},     // 5 words at 2 a shard: 3 shards
		{7813, 4, 4, 1984},   // quick-scale table, ragged tail
		{7813, 3, 3, 2624},   // any request, not only powers of two
		{78125, 2, 2, 39104}, // the full table: 611 + 610 words
		{78125, 8, 8, 9792},  // 7 × 153 words + 150
		{7813, 0, 0, 0},      // auto: GOMAXPROCS-dependent, checked below
	}
	for _, c := range cases {
		p := makeShardPlan(c.n, c.requested)
		if c.shards != 0 && (p.count() != c.shards || p.perShard() != c.perShard) {
			t.Errorf("plan(%d,%d): got %d shards × %d, want %d × %d",
				c.n, c.requested, p.count(), p.perShard(), c.shards, c.perShard)
		}
		// Invariants for every plan: ranges tile [0,n) in order, aligned to
		// bitmap words, and shardOf agrees with objRange.
		next := 0
		for s := 0; s < p.count(); s++ {
			lo, hi := p.objRange(s)
			if lo != next || hi <= lo || hi > c.n {
				t.Fatalf("plan(%d,%d): shard %d range [%d,%d) does not tile (next=%d)",
					c.n, c.requested, s, lo, hi, next)
			}
			if lo%64 != 0 {
				t.Fatalf("plan(%d,%d): shard %d starts at %d, not word-aligned", c.n, c.requested, s, lo)
			}
			if p.shardOf(int32(lo)) != s || p.shardOf(int32(hi-1)) != s {
				t.Fatalf("plan(%d,%d): shardOf disagrees with objRange for shard %d", c.n, c.requested, s)
			}
			next = hi
		}
		if next != c.n {
			t.Fatalf("plan(%d,%d): shards cover [0,%d), want [0,%d)", c.n, c.requested, next, c.n)
		}
	}
}

// TestShardedGracefulRecovery is TestGracefulRecoveryEquivalence across
// shard counts.
func TestShardedGracefulRecovery(t *testing.T) {
	for _, mode := range []Mode{ModeNaiveSnapshot, ModeCopyOnUpdate, ModeAtomicCopy} {
		for _, shards := range []int{1, 4} {
			t.Run(mode.String()+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				dir := t.TempDir()
				tab := shardTable()
				ref := newReference(tab)
				rng := rand.New(rand.NewSource(31))

				e, err := Open(Options{Table: tab, Dir: dir, Mode: mode, SyncEveryTick: true, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if want := shards; e.Shards() != want {
					t.Fatalf("Shards() = %d, want %d", e.Shards(), want)
				}
				const ticks = 80
				for i := 0; i < ticks; i++ {
					batch := randomBatch(rng, tab.NumCells(), 50)
					ref.apply(batch)
					if err := e.ApplyTick(batch); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}

				e2, err := Open(Options{Table: tab, Dir: dir, Mode: mode, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer e2.Close()
				if !ref.matches(e2.Store()) {
					t.Fatal("recovered state differs from reference")
				}
				if e2.NextTick() != ticks {
					t.Errorf("NextTick after recovery = %d, want %d", e2.NextTick(), ticks)
				}
			})
		}
	}
}

// TestShardedAbruptCrash abandons a 4-shard engine without Close and
// recovers.
func TestShardedAbruptCrash(t *testing.T) {
	dir := t.TempDir()
	tab := shardTable()
	ref := newReference(tab)
	rng := rand.New(rand.NewSource(33))

	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		batch := randomBatch(rng, tab.NumCells(), 40)
		ref.apply(batch)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: quiesce the writer so the abandoned engine cannot touch the
	// files the reopened engine reads, then drop everything.
	e.cp.close()  //nolint:errcheck
	e.log.Close() //nolint:errcheck

	e2, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !ref.matches(e2.Store()) {
		t.Fatal("state after abrupt crash differs from reference")
	}
}

// TestShardedImageConsistency is the COU tick-consistency guarantee under
// the 4-shard parallel flush: the image on disk must be byte-exact as of
// the checkpoint's start tick even though the ticks keep updating hot cells
// throughout the chunked, throttled flush — and the pre-image copy path must
// actually engage.
func TestShardedImageConsistency(t *testing.T) {
	dir := t.TempDir()
	tab := shardTable()
	rng := rand.New(rand.NewSource(34))

	e, err := Open(Options{
		Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 4,
		// Throttle so a flush spans many ticks and updates race the writers.
		DiskBytesPerSec: 8e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", e.Shards())
	}

	history := map[uint64][]byte{}
	const ticks = 200
	for i := 0; i < ticks; i++ {
		// Heavy traffic on a hot range plus scattered cold updates.
		batch := randomBatch(rng, 2048, 60)
		batch = append(batch, randomBatch(rng, tab.NumCells(), 30)...)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		history[uint64(i)] = append([]byte(nil), e.Store().Slab()...)
		time.Sleep(500 * time.Microsecond)
	}
	copies := e.CheckpointStats().Copies.Load()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(e.Stats().Checkpoints) < 2 {
		t.Fatalf("only %d checkpoints completed", len(e.Stats().Checkpoints))
	}
	if copies == 0 {
		t.Error("no pre-image copies despite updates racing the parallel flush")
	}

	checkImagesAgainstHistory(t, dir, history)
}

// TestShardCountsProduceIdenticalImages is the cross-shard determinism
// property: the same durably-logged workload recovered through a 1-shard
// and a 4-shard engine must yield byte-identical state images.
func TestShardCountsProduceIdenticalImages(t *testing.T) {
	for _, mode := range []Mode{ModeCopyOnUpdate, ModeAtomicCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			tab := shardTable()
			slabs := map[int][]byte{}
			for _, shards := range []int{1, 4} {
				dir := t.TempDir()
				rng := rand.New(rand.NewSource(35)) // same workload per shard count
				e, err := Open(Options{Table: tab, Dir: dir, Mode: mode, SyncEveryTick: true, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 45)); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				e2, err := Open(Options{Table: tab, Dir: dir, Mode: mode, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				slabs[shards] = append([]byte(nil), e2.Store().Slab()...)
				e2.Close()
			}
			if !bytes.Equal(slabs[1], slabs[4]) {
				t.Fatal("recovered images differ between 1-shard and 4-shard engines")
			}
		})
	}
}

// TestCheckpointNow covers the synchronous checkpoint hook.
func TestCheckpointNow(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Mode: ModeNone, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CheckpointNow(); err == nil {
		t.Error("CheckpointNow succeeded under ModeNone")
	}
	e.Close()

	e, err = Open(Options{Table: shardTable(), Mode: ModeDribble, InMemory: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.CheckpointNow(); err == nil {
		t.Error("CheckpointNow succeeded before any tick")
	}
	rng := rand.New(rand.NewSource(37))
	if err := e.ApplyTick(randomBatch(rng, shardTable().NumCells(), 30)); err != nil {
		t.Fatal(err)
	}
	info, err := e.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != shardTable().StateBytes() {
		t.Errorf("dribble checkpoint wrote %d bytes, want full state %d", info.Bytes, shardTable().StateBytes())
	}
	if info.Objects != shardTable().NumObjects() {
		t.Errorf("dribble checkpoint wrote %d objects, want %d", info.Objects, shardTable().NumObjects())
	}
	if len(e.Stats().Checkpoints) == 0 {
		t.Error("CheckpointNow did not record the completion")
	}
}

// TestShardedWritesOnlyDirty: steady-state COU checkpoints stay
// dirty-set-sized under the parallel flush.
func TestShardedWritesOnlyDirty(t *testing.T) {
	tab := shardTable()
	e, err := Open(Options{Table: tab, Mode: ModeCopyOnUpdate, InMemory: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(38))
	// Touch only the first 512 cells (4 objects) repeatedly.
	for i := 0; i < 200; i++ {
		if err := e.ApplyTick(randomBatch(rng, 512, 50)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil { // every tick ends with its image committed
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	infos := e.Stats().Checkpoints
	if len(infos) < 4 {
		t.Fatalf("only %d checkpoints", len(infos))
	}
	full := int64(tab.StateBytes())
	for _, ck := range infos[:2] {
		if ck.Bytes != full {
			t.Errorf("cold-start checkpoint wrote %d bytes, want %d", ck.Bytes, full)
		}
	}
	for _, ck := range infos[2:] {
		if ck.Bytes >= full/8 {
			t.Errorf("steady-state checkpoint wrote %d bytes, want ≪ %d", ck.Bytes, full)
		}
		if ck.Objects > 4 {
			t.Errorf("steady-state checkpoint wrote %d objects, want ≤4", ck.Objects)
		}
	}
}
