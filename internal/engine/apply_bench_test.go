package engine

import (
	"testing"

	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkApplyTick is the apply path alone at the repository benchmark's
// two engine shapes: bulk-apply's (full 40 MB table, 2 shards, 16,000
// hotspot updates a tick) and the quick table's (4 MB, 1 shard, 6,400), both
// under copy-on-update on throttled file devices with a flush in flight for
// the whole run — the regime where the apply path pays for pre-images. It
// reports apply-ns/update from the engine's own apply timer, so log append
// and checkpoint management are outside the figure. Compare commits with
// alternated binaries (go test -c), -benchtime 2000x.
func BenchmarkApplyTick(b *testing.B) {
	for _, c := range []struct {
		name    string
		table   gamestate.Table
		updates int
		shards  int
		disk    float64
	}{
		{"bulk-apply", gamestate.Table{Rows: 1_000_000, Cols: 10, CellSize: 4, ObjSize: 512}, 16000, 2, 20e6},
		{"quick", gamestate.Table{Rows: 100_000, Cols: 10, CellSize: 4, ObjSize: 512}, 6400, 1, 10e6},
	} {
		b.Run(c.name, func(b *testing.B) {
			const rotating = 64
			src, err := workload.New("hotspot", workload.Config{
				Table: c.table, UpdatesPerTick: c.updates, Ticks: rotating, Skew: 0.8, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			batches := make([][]wal.Update, rotating)
			var cells []uint32
			for t := range batches {
				cells, batches[t] = workload.TickUpdates(src, t, cells, nil)
			}
			e, err := Open(Options{
				Table: c.table, Dir: b.TempDir(), Mode: ModeCopyOnUpdate,
				Shards: c.shards, DiskBytesPerSec: c.disk,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			// Past the first image of each backup, so checkpoints are
			// dirty-set sized as they are in a long-running engine.
			for t := 0; t < 10; t++ {
				if err := e.ApplyTick(batches[t]); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if _, err := e.CheckpointNow(); err != nil {
					b.Fatal(err)
				}
			}
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.ApplyTick(batches[i%rotating]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := e.Stats()
			b.ReportMetric(float64(after.ApplyTotal-before.ApplyTotal)/float64(after.UpdatesApplied-before.UpdatesApplied), "apply-ns/update")
		})
	}
}
