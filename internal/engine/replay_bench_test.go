package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkReplayPipeline is the replay stage alone at the repository
// benchmark's crash-recover shape: 640 ticks of 6,400 hotspot updates (skew
// 0.8) over the 40 MB table, logged by an engine as it logs them live,
// replayed over a full image restored from memory — so the log is the work —
// through the recovery pipeline with the engine's shard plan and replayers.
// Every run must end on the image with ticks 1–640 applied, as the engine
// that logged them holds it. The requested shard count names the
// sub-benchmark; the plan may fold to fewer. Compare commits with alternated
// binaries (go test -c), -benchtime 10x.
func BenchmarkReplayPipeline(b *testing.B) {
	const records, perRec = 640, 6400
	tab := gamestate.Default()
	dir := b.TempDir()
	// Tick 0 is the image's; replay covers ticks 1..records.
	src, err := workload.New("hotspot", workload.Config{
		Table: tab, UpdatesPerTick: perRec, Ticks: records + 1, Skew: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	image := make([]byte, tab.StateBytes())
	rand.New(rand.NewSource(1)).Read(image)
	// The logging engine holds the image's bytes once tick 0 is logged, so it
	// ends on the state the replay must reach.
	w, err := Open(Options{Table: tab, Dir: dir, Mode: ModeNone, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	var cells []uint32
	var batch []wal.Update
	var first int64
	for t := 0; t <= records; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := w.ApplyTick(batch); err != nil {
			b.Fatal(err)
		}
		if t == 0 {
			first = w.Stats().UpdatesApplied
			copy(w.store.Slab(), image)
		}
	}
	want := w.Stats().UpdatesApplied - first
	final := bytes.Clone(w.store.Slab())
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var backups [2]*disk.Backup
	for i := range backups {
		if backups[i], err = disk.NewBackup(disk.NewMem(), tab.NumObjects(), tab.ObjSize); err != nil {
			b.Fatal(err)
		}
	}
	if err := backups[0].WriteRun(0, image); err != nil {
		b.Fatal(err)
	}
	if err := backups[0].WriteHeader(disk.Header{Epoch: 1, AsOfTick: 0, Complete: true}); err != nil {
		b.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := Open(Options{Table: tab, InMemory: true, Mode: ModeNone, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ranges := e.plan.ranges()
			reps := e.replayers(ranges)
			opts := recovery.ParallelOptions{
				A: backups[0], B: backups[1], Slab: e.store.Slab(), Log: log, Ranges: ranges,
				Replay: func(shard int, window []recovery.Record, restore *recovery.Restorer) (int, int64, error) {
					return reps[shard].replay(window, restore)
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := recovery.RecoverParallel(opts)
				if err != nil || res.ReplayedUpdates != want {
					b.Fatalf("replayed %d updates, want %d: %v", res.ReplayedUpdates, want, err)
				}
			}
			b.StopTimer()
			if !bytes.Equal(e.store.Slab(), final) {
				b.Fatal("the replayed slab is not the image with ticks 1–640 applied")
			}
			b.ReportMetric(float64(b.N)*float64(want)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkEncodeTick is the live encode of one 6,400-update hotspot tick on
// the 40 MB table: the run record the engine logs, encoded from the bucket
// its apply sorts anyway. It reports the log bytes per update.
func BenchmarkEncodeTick(b *testing.B) {
	const rotating, perTick = 64, 6400
	tab := gamestate.Default()
	src, err := workload.New("hotspot", workload.Config{
		Table: tab, UpdatesPerTick: perTick, Ticks: rotating, Skew: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := Open(Options{Table: tab, InMemory: true, Mode: ModeNone})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	batches, buckets := make([][]wal.Update, rotating), make([][]wal.Update, rotating)
	var cells []uint32
	for t := range batches {
		cells, batches[t] = workload.TickUpdates(src, t, cells, nil)
		buckets[t] = e.bucketBatch(nil, batches[t], e.off)
	}
	var buf []byte
	var bytes, updates int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wal.EncodeRuns(append(buf[:0], recUpdateRuns), buckets[i%rotating])
		bytes += len(buf)
		updates += len(batches[i%rotating])
	}
	b.ReportMetric(float64(bytes)/float64(updates), "B/update")
}
