package repro

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its experiment at quick scale (a 1/10 linear scaling of Table
// 4 that preserves the ratios the conclusions depend on; see DESIGN.md) and
// logs the same rows/series the paper reports. cmd/experiments runs the same
// harnesses, including at full (paper) scale.
//
// Benchmark metrics:
//   - sec/op is the cost of regenerating the experiment;
//   - custom metrics carry the experiment's own headline numbers, e.g.
//     naive-overhead-ms/tick and cou-overhead-ms/tick for Figure 2(a).

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// The sweep experiments feed three figures each; cache them across benches.
var (
	fig2Once sync.Once
	fig2     *experiments.FigureSet
	fig2Err  error

	fig4Once sync.Once
	fig4     *experiments.FigureSet
	fig4Err  error

	fig5Once sync.Once
	fig5     *experiments.GameResult
	fig5Err  error
)

func getFig2(b *testing.B) *experiments.FigureSet {
	fig2Once.Do(func() { fig2, fig2Err = experiments.RunUpdateSweep(experiments.Quick, 1) })
	if fig2Err != nil {
		b.Fatal(fig2Err)
	}
	return fig2
}

func getFig4(b *testing.B) *experiments.FigureSet {
	fig4Once.Do(func() { fig4, fig4Err = experiments.RunSkewSweep(experiments.Quick, 1) })
	if fig4Err != nil {
		b.Fatal(fig4Err)
	}
	return fig4
}

func getFig5(b *testing.B) *experiments.GameResult {
	fig5Once.Do(func() { fig5, fig5Err = experiments.RunGameTrace(experiments.Quick, 1) })
	if fig5Err != nil {
		b.Fatal(fig5Err)
	}
	return fig5
}

func logFigure(b *testing.B, f *metrics.Figure) {
	b.Helper()
	b.Logf("\n%s", f.String())
}

func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(checkpoint.Taxonomy()) != 6 || len(checkpoint.SubroutineTable()) != 6 {
			b.Fatal("taxonomy incomplete")
		}
	}
	t := metrics.NewTextTable()
	t.Header("method", "copy timing", "objects copied", "disk organization")
	for _, c := range checkpoint.Taxonomy() {
		t.Row(c.Method.String(), c.Timing.String(), c.Objects.String(), c.Disk.String())
	}
	b.Logf("\nTable 1: design space of checkpointing algorithms\n%s", t.String())
}

func BenchmarkTable3Microbench(b *testing.B) {
	var p Params
	var err error
	for i := 0; i < b.N; i++ {
		p, err = experiments.MeasureTable3(false, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\nTable 3: cost-model parameters (paper vs this host)\n%s",
		experiments.Table3Comparison(p).String())
	b.ReportMetric(p.MemBandwidth/1e9, "host-Bmem-GB/s")
	b.ReportMetric(p.LockOverhead*1e9, "host-Olock-ns")
}

func BenchmarkTable5GameTrace(b *testing.B) {
	var gr *experiments.GameResult
	for i := 0; i < b.N; i++ {
		gr = getFig5(b)
	}
	b.Logf("\nTable 5: prototype game trace characteristics (quick scale: 1/10 units)\n%s",
		gr.Table5().String())
	b.ReportMetric(gr.Stats.AvgUpdatesTick, "updates/tick")
}

func BenchmarkFig2aOverheadVsUpdates(b *testing.B) {
	var fs *experiments.FigureSet
	for i := 0; i < b.N; i++ {
		fs = getFig2(b)
	}
	logFigure(b, &fs.Overhead)
	naive := fs.Raw[NaiveSnapshot][0].AvgOverhead
	cou := fs.Raw[CopyOnUpdate][0].AvgOverhead
	b.ReportMetric(naive*1e3, "naive-overhead-ms/tick@low")
	b.ReportMetric(cou*1e3, "cou-overhead-ms/tick@low")
}

func BenchmarkFig2bCheckpointVsUpdates(b *testing.B) {
	var fs *experiments.FigureSet
	for i := 0; i < b.N; i++ {
		fs = getFig2(b)
	}
	logFigure(b, &fs.Checkpoint)
	b.ReportMetric(fs.Raw[NaiveSnapshot][0].AvgCheckpointTime, "naive-ckpt-sec")
	b.ReportMetric(fs.Raw[PartialRedo][0].AvgCheckpointTime, "partialredo-ckpt-sec@low")
}

func BenchmarkFig2cRecoveryVsUpdates(b *testing.B) {
	var fs *experiments.FigureSet
	for i := 0; i < b.N; i++ {
		fs = getFig2(b)
	}
	logFigure(b, &fs.Recovery)
	last := len(fs.X) - 1
	b.ReportMetric(fs.Raw[NaiveSnapshot][last].RecoveryTime, "naive-recovery-sec@high")
	b.ReportMetric(fs.Raw[PartialRedo][last].RecoveryTime, "partialredo-recovery-sec@high")
}

func BenchmarkFig3LatencyTimeline(b *testing.B) {
	var tl *experiments.Timeline
	var err error
	for i := 0; i < b.N; i++ {
		tl, err = experiments.RunLatencyTimeline(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, &tl.Figure)
	naive := tl.Raw[NaiveSnapshot]
	peak := 0.0
	for t := 0; t < naive.Ticks; t++ {
		if v := naive.TickLength(t); v > peak {
			peak = v
		}
	}
	b.ReportMetric(peak*1e3, "naive-peak-tick-ms")
	b.ReportMetric(tl.Limit*1e3, "latency-limit-ms")
}

func BenchmarkFig4aOverheadVsSkew(b *testing.B) {
	var fs *experiments.FigureSet
	for i := 0; i < b.N; i++ {
		fs = getFig4(b)
	}
	logFigure(b, &fs.Overhead)
}

func BenchmarkFig4bCheckpointVsSkew(b *testing.B) {
	var fs *experiments.FigureSet
	for i := 0; i < b.N; i++ {
		fs = getFig4(b)
	}
	logFigure(b, &fs.Checkpoint)
}

func BenchmarkFig4cRecoveryVsSkew(b *testing.B) {
	var fs *experiments.FigureSet
	for i := 0; i < b.N; i++ {
		fs = getFig4(b)
	}
	logFigure(b, &fs.Recovery)
}

func BenchmarkFig5GameTrace(b *testing.B) {
	var gr *experiments.GameResult
	for i := 0; i < b.N; i++ {
		gr = getFig5(b)
	}
	b.Logf("\nFigure 5: Knights and Archers trace (quick scale)\n%s", gr.Bars.String())
	b.ReportMetric(gr.Raw[CopyOnUpdate].AvgOverhead*1e3, "cou-overhead-ms/tick")
	b.ReportMetric(gr.Raw[CopyOnUpdate].RecoveryTime, "cou-recovery-sec")
}

func BenchmarkFig6Validation(b *testing.B) {
	sweep := experiments.UpdateSweep(experiments.Quick)
	var vr *experiments.ValidationResult
	var err error
	for i := 0; i < b.N; i++ {
		vr, err = experiments.RunValidation(experiments.Quick, experiments.ValidationOptions{
			Points:   []int{sweep[0], sweep[4], sweep[8]},
			Ticks:    60,
			Compress: 20,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, &vr.Overhead)
	logFigure(b, &vr.Checkpoint)
	logFigure(b, &vr.Recovery)
	for _, run := range vr.Runs {
		if run.Method == CopyOnUpdate && run.SimOverhead > 0 {
			b.ReportMetric(run.ImplOverhead/run.SimOverhead, "cou-impl/sim-overhead-ratio")
		}
	}
}

func BenchmarkAblationFullEvery(b *testing.B) {
	var ckpt, rec *metrics.Figure
	var err error
	for i := 0; i < b.N; i++ {
		ckpt, rec, err = experiments.RunAblationFullEvery(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, ckpt)
	logFigure(b, rec)
}

func BenchmarkAblationSortedWrites(b *testing.B) {
	var fig *metrics.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.RunAblationSortedWrites(experiments.Quick)
	}
	logFigure(b, fig)
}

func BenchmarkAblationHardware(b *testing.B) {
	var diskFig, memFig *metrics.Figure
	var err error
	for i := 0; i < b.N; i++ {
		diskFig, memFig, err = experiments.RunAblationHardware(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, diskFig)
	logFigure(b, memFig)
}

// BenchmarkSimulatorThroughput measures raw simulator speed: one tick of
// 6,400 updates against the recommended method at quick scale.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := experiments.Config(experiments.Quick)
	sim, err := checkpoint.New(CopyOnUpdate, cfg)
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewZipfianTrace(ZipfianTraceConfig{
		Table: cfg.Table, UpdatesPerTick: 6400, Ticks: 1 << 20, Skew: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	updates := src.AppendTick(0, nil)
	b.SetBytes(int64(len(updates) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.TickCells(updates)
	}
}

// BenchmarkEngineShardedApply measures update-apply throughput through the
// sharded engine at quick scale (4 MB state, 6,400 updates per tick, the
// Table 4 bold default scaled 1/10) at growing shard counts. One mutator
// goroutine applies the tick whatever the count, so the lines should agree:
// a gap is what the partition's bookkeeping costs the apply path.
func BenchmarkEngineShardedApply(b *testing.B) {
	cfg := experiments.Config(experiments.Quick)
	src, err := NewZipfianTrace(ZipfianTraceConfig{
		Table: cfg.Table, UpdatesPerTick: 6400, Ticks: 1 << 20, Skew: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cells := src.AppendTick(0, nil)
	batch := make([]Update, len(cells))
	for i, c := range cells {
		batch[i] = Update{Cell: c, Value: uint32(i)}
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := OpenEngine(EngineOptions{
				Table: cfg.Table, Mode: ModeCopyOnUpdate, InMemory: true, Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.SetBytes(int64(len(batch)) * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.ApplyTick(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Stats()
			if st.ApplyTotal > 0 {
				b.ReportMetric(float64(st.UpdatesApplied)/st.ApplyTotal.Seconds()/1e6, "Mupdates/s")
			}
		})
	}
}

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

func BenchmarkExtensionLoggingFeasibility(b *testing.B) {
	var fig *metrics.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.RunLoggingFeasibility(experiments.Full)
	}
	logFigure(b, fig)
	b.ReportMetric(experiments.MaxPhysicalLoggingRate(experiments.Full), "aries-saturation-updates/tick")
}

func BenchmarkExtensionKSafety(b *testing.B) {
	var tab fmt.Stringer
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunKSafetyComparison(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		tab = t
	}
	b.Logf("\nCheckpoint recovery vs K-safe replication\n%s", tab.String())
}

func BenchmarkExtensionMultiServer(b *testing.B) {
	var ms *experiments.MultiServerResult
	var err error
	for i := 0; i < b.N; i++ {
		ms, err = experiments.RunMultiServer(experiments.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, &ms.Recovery)
	logFigure(b, &ms.TickOverhead)
	logFigure(b, &ms.Imbalance)
	rec := ms.Recovery.Series[0].Points
	b.ReportMetric(rec[0].Y, "recovery-sec-1server")
	b.ReportMetric(rec[len(rec)-1].Y, "recovery-sec-8servers")
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
