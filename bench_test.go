package repro

// Engine microbenchmarks through the public facade. The paper's tables and
// figures are regenerated by cmd/experiments and asserted by
// internal/experiments' tests; end-to-end performance is gated by the repo
// benchmark (BENCHMARK.json, bash benchmark/run.sh).

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkEngineParallelFlush measures full-state checkpoint flush wall
// time through the per-shard flusher pool: Dribble mode writes the whole
// quick-scale image (4 MB) every checkpoint, to real files, unthrottled, so
// sec/op is one coordinated parallel flush including both header syncs.
func BenchmarkEngineParallelFlush(b *testing.B) {
	cfg := experiments.Config(experiments.Quick)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := OpenEngine(EngineOptions{
				Table: cfg.Table, Dir: b.TempDir(), Mode: ModeDribble, Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			batch := []Update{{Cell: 1, Value: 2}, {Cell: 99, Value: 3}}
			b.SetBytes(cfg.Table.StateBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.ApplyTick(batch); err != nil {
					b.Fatal(err)
				}
				if _, err := e.CheckpointNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryPipeline measures sharded pipelined recovery (restore ∥
// replay, see recovery.RecoverParallel) of the quick-scale state from
// unthrottled files: sec/op is one full RecoverEngine — vectored per-shard
// image restore overlapped with per-shard replay of a 16-tick log. On
// a multi-core host the 8-shard line shows the pipeline win; custom metrics
// carry the stage breakdown of the last recovery.
func BenchmarkRecoveryPipeline(b *testing.B) {
	cfg := experiments.Config(experiments.Quick)
	dir := b.TempDir()
	src, err := NewZipfianTrace(ZipfianTraceConfig{
		Table: cfg.Table, UpdatesPerTick: 6400, Ticks: 64, Skew: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tick := func(e *Engine, t int) {
		cells := src.AppendTick(t, nil)
		batch := make([]Update, len(cells))
		for i, c := range cells {
			batch[i] = Update{Cell: c, Value: uint32(t)}
		}
		if err := e.ApplyTick(batch); err != nil {
			b.Fatal(err)
		}
	}
	// Image phase: checkpoint until the image covers the warm ticks, then a
	// ModeNone engine grows exactly 16 replayable ticks.
	e, err := OpenEngine(EngineOptions{Table: cfg.Table, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 8; t++ {
		tick(e, t)
	}
	for {
		info, err := e.CheckpointNow()
		if err != nil {
			b.Fatal(err)
		}
		if info.AsOfTick >= 7 {
			break
		}
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	e, err = OpenEngine(EngineOptions{Table: cfg.Table, Dir: dir, Mode: ModeNone})
	if err != nil {
		b.Fatal(err)
	}
	for t := 8; t < 24; t++ {
		tick(e, t)
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}

	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var pres ParallelRecoveryResult
			b.SetBytes(int64(cfg.Table.StateBytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				re, r, err := RecoverEngine(EngineOptions{
					Table: cfg.Table, Dir: dir, Mode: ModeCopyOnUpdate, Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				pres = r
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pres.RestoreDuration.Seconds()*1e3, "restore-ms")
			b.ReportMetric(pres.ReplayDuration.Seconds()*1e3, "replay-ms")
			b.ReportMetric(pres.TotalDuration.Seconds()*1e3, "pipeline-ms")
		})
	}
}
