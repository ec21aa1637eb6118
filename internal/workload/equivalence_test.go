package workload_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestScenarioCrashEquivalence runs every registered scenario through the
// 1/2/8-shard byte-identity harness: the same durably-logged workload,
// recovered at each shard width, must reconstruct exactly the state a
// plain serial apply produces — whatever the workload's shape (drifting
// hot sets, bursts, churn). This is the crash-equivalence guarantee the
// recoverytime experiment re-checks per cell.
func TestScenarioCrashEquivalence(t *testing.T) {
	// 512 objects so an 8-shard plan keeps 8 effective shards.
	tab := gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
	cfg := workload.Config{Table: tab, UpdatesPerTick: 400, Ticks: 24, Skew: 0.8, Seed: 11}
	for _, name := range workload.Names() {
		for _, mode := range []engine.Mode{engine.ModeCopyOnUpdate, engine.ModeNaiveSnapshot} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				src, err := workload.New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceSlab(t, tab, src)
				for _, shards := range []int{1, 2, 8} {
					dir := t.TempDir()
					e, err := engine.Open(engine.Options{
						Table: tab, Dir: dir, Mode: mode, SyncEveryTick: true, Shards: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					var cells []uint32
					var batch []wal.Update
					for i := 0; i < src.NumTicks(); i++ {
						cells, batch = tickBatch(src, i, cells, batch)
						if err := e.ApplyTick(batch); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					// Recover through the sharded pipeline at the same width.
					e2, pres, err := engine.RecoverFrom(engine.Options{
						Table: tab, Dir: dir, Mode: mode, Shards: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(e2.Store().Slab(), ref) {
						e2.Close()
						t.Fatalf("shards=%d: recovered state differs from serial reference (replayed %d ticks)",
							shards, pres.ReplayedTicks)
					}
					if e2.NextTick() != uint64(src.NumTicks()) {
						t.Errorf("shards=%d: NextTick = %d, want %d", shards, e2.NextTick(), src.NumTicks())
					}
					if err := e2.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// referenceSlab applies the whole workload serially to an in-memory,
// checkpoint-free engine and returns the resulting state — the ground
// truth every recovery path must reproduce byte-for-byte.
func referenceSlab(t *testing.T, tab gamestate.Table, src workload.Source) []byte {
	t.Helper()
	ref, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var cells []uint32
	var batch []wal.Update
	for i := 0; i < src.NumTicks(); i++ {
		cells, batch = tickBatch(src, i, cells, batch)
		if err := ref.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), ref.Store().Slab()...)
}

// tickBatch materializes tick t as wal updates. Values encode (tick,
// position) so last-write-wins ordering inside a tick is observable — a
// shard-apply reordering bug shows up as a byte mismatch, not a silent
// coincidence.
func tickBatch(src workload.Source, t int, cells []uint32, batch []wal.Update) ([]uint32, []wal.Update) {
	cells = src.AppendTick(t, cells[:0])
	batch = batch[:0]
	for i, c := range cells {
		batch = append(batch, wal.Update{Cell: c, Value: uint32(t)*1_000_003 + uint32(i)})
	}
	return cells, batch
}
