package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/wal"
)

// The recovery-time experiment measures the paper's headline quantity,
// ΔTrecovery = ΔTrestore + ΔTreplay (Section 4.2), through the sharded
// parallel recovery pipeline: checkpoint method × log length × shard count,
// reporting the per-stage breakdown, the pipeline wall time, and the serial
// baseline on the same on-disk state. Because restore and replay overlap
// (replay of restored shards runs while the rest of the image streams in),
// the pipeline total undercuts the sum of its stages; the "overlap" column
// is exactly the recovery time the pipelining buys back.
//
// The workload is built in two phases so the replayed log length is an
// exact experimental axis: a checkpointing engine writes the image, then a
// ModeNone engine (no checkpoints, so no log rotation) appends exactly L
// ticks for recovery to replay. By default the backup devices emulate the
// paper's dedicated recovery disk (60 MB/s at full scale, 6 MB/s at quick),
// which is what gives restore a real duration for replay to hide under;
// pass a negative rate for raw unthrottled files (ReStore-style restore
// scaling on hardware with internal parallelism).

// RecoveryTimeRow is one (method, log length, shard count) measurement.
type RecoveryTimeRow struct {
	Mode     engine.Mode
	LogTicks int
	// Shards is the requested recovery width, Effective the plan's width.
	Shards    int
	Effective int
	// Restore and Replay are the pipeline's stage wall times (ΔTrestore,
	// ΔTreplay); Total is the pipeline wall. Overlap is the recovery time
	// pipelining the stages saved (recovery.ParallelResult.Overlap, never
	// negative).
	Restore time.Duration
	Replay  time.Duration
	Total   time.Duration
	Overlap time.Duration
	// Serial is ΔTrestore + ΔTreplay through the serial recovery path on
	// the same directory, the single-core baseline.
	Serial time.Duration
	// ReplayedTicks confirms the log-length axis took effect.
	ReplayedTicks int
}

// RecoveryTimeResult aggregates the sweep.
type RecoveryTimeResult struct {
	Rows    []RecoveryTimeRow
	Restore report.Figure // x = shards, y = ΔTrestore seconds
	Replay  report.Figure // x = shards, y = ΔTreplay seconds
	Total   report.Figure // x = shards, y = pipeline recovery seconds
}

// Table renders the rows as an aligned text table.
func (r *RecoveryTimeResult) Table() *report.TextTable {
	t := report.NewTextTable()
	t.Header("method", "log ticks", "shards", "eff",
		"restore ms", "replay ms", "pipeline ms", "overlap ms", "serial ms", "replayed")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	for _, row := range r.Rows {
		t.Row(row.Mode.String(), fmt.Sprint(row.LogTicks),
			fmt.Sprint(row.Shards), fmt.Sprint(row.Effective),
			ms(row.Restore), ms(row.Replay), ms(row.Total), ms(row.Overlap),
			ms(row.Serial), fmt.Sprint(row.ReplayedTicks))
	}
	return t
}

// DefaultRecoveryLogLens returns the log-length axis for a scale.
func DefaultRecoveryLogLens(s Scale) []int {
	if s == Full {
		return []int{64, 256}
	}
	return []int{16, 64}
}

// recoveryWarmTicks is the pre-checkpoint workload that populates the image.
const recoveryWarmTicks = 8

// RunRecoveryTime sweeps checkpoint method × log length × shard count and
// measures sharded pipelined recovery on each resulting on-disk state. Nil
// shardCounts defaults to {1,2,4,8}; nil logLens to the scale's default.
// diskBytesPerSec throttles the backup devices: 0 means the scale's
// paper-faithful recovery-disk bandwidth, negative means unthrottled.
func RunRecoveryTime(s Scale, seed int64, shardCounts, logLens []int, diskBytesPerSec float64) (*RecoveryTimeResult, error) {
	updates := DefaultUpdates(s)
	if diskBytesPerSec == 0 {
		diskBytesPerSec = Config(s).Params.DiskBandwidth
	} else if diskBytesPerSec < 0 {
		diskBytesPerSec = 0 // engine convention: 0 = unthrottled
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	if len(logLens) == 0 {
		logLens = DefaultRecoveryLogLens(s)
	}
	res := &RecoveryTimeResult{
		Restore: report.Figure{
			Title:  fmt.Sprintf("Recovery pipeline (%s scale): restore stage vs shard count", s),
			XLabel: "# shards", YLabel: "ΔTrestore [sec]",
		},
		Replay: report.Figure{
			Title:  fmt.Sprintf("Recovery pipeline (%s scale): replay stage vs shard count", s),
			XLabel: "# shards", YLabel: "ΔTreplay [sec]",
		},
		Total: report.Figure{
			Title:  fmt.Sprintf("Recovery pipeline (%s scale): pipeline total vs shard count", s),
			XLabel: "# shards", YLabel: "recovery time [sec]",
		},
	}

	for _, mode := range []engine.Mode{engine.ModeNaiveSnapshot, engine.ModeCopyOnUpdate} {
		for _, logLen := range logLens {
			dir, err := os.MkdirTemp("", "mmorecov")
			if err != nil {
				return nil, err
			}
			serial, rows, err := recoveryPoint(mode, s, seed, updates, logLen, shardCounts, dir, diskBytesPerSec)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%s/L=%d", mode, logLen)
			restoreSeries := report.Series{Name: key}
			replaySeries := report.Series{Name: key}
			totalSeries := report.Series{Name: key}
			for i := range rows {
				rows[i].Serial = serial
				restoreSeries.Add(float64(rows[i].Shards), rows[i].Restore.Seconds())
				replaySeries.Add(float64(rows[i].Shards), rows[i].Replay.Seconds())
				totalSeries.Add(float64(rows[i].Shards), rows[i].Total.Seconds())
				res.Rows = append(res.Rows, rows[i])
			}
			res.Restore.Add(restoreSeries)
			res.Replay.Add(replaySeries)
			res.Total.Add(totalSeries)
		}
	}
	return res, nil
}

// recoveryPoint builds one on-disk state (image via mode, then logLen
// logged-only ticks) and recovers it serially and at each shard count.
func recoveryPoint(mode engine.Mode, s Scale, seed int64, updates, logLen int,
	shardCounts []int, dir string, diskRate float64) (time.Duration, []RecoveryTimeRow, error) {
	cfg := Config(s)
	src, err := zipfSource(cfg, updates, recoveryWarmTicks+logLen, DefaultSkew, seed)
	if err != nil {
		return 0, nil, err
	}
	var cells []uint32
	batch := make([]wal.Update, 0, updates)
	tickBatch := func(t int) []wal.Update {
		cells = src.AppendTick(t, cells[:0])
		batch = batch[:0]
		for _, c := range cells {
			batch = append(batch, wal.Update{Cell: c, Value: uint32(t)})
		}
		return batch
	}

	// Phase 1: a checkpointing engine writes the image.
	e, err := engine.Open(engine.Options{Table: cfg.Table, Dir: dir, Mode: mode, DiskBytesPerSec: diskRate})
	if err != nil {
		return 0, nil, err
	}
	for t := 0; t < recoveryWarmTicks; t++ {
		if err := e.ApplyTick(tickBatch(t)); err != nil {
			e.Close()
			return 0, nil, err
		}
	}
	// The image must cover the whole warm phase so the replayed log is
	// exactly the logLen ticks below; CheckpointAsOf is the loop that
	// guarantees it.
	if _, err := e.CheckpointAsOf(recoveryWarmTicks - 1); err != nil {
		e.Close()
		return 0, nil, err
	}
	if err := e.Close(); err != nil {
		return 0, nil, err
	}

	// Phase 2: a ModeNone engine appends exactly logLen replayable ticks
	// (no checkpoints, so the image stays where phase 1 left it).
	e, err = engine.Open(engine.Options{Table: cfg.Table, Dir: dir, Mode: engine.ModeNone, DiskBytesPerSec: diskRate})
	if err != nil {
		return 0, nil, err
	}
	start := int(e.NextTick())
	for t := 0; t < logLen; t++ {
		if err := e.ApplyTick(tickBatch(start + t)); err != nil {
			e.Close()
			return 0, nil, err
		}
	}
	if err := e.Close(); err != nil {
		return 0, nil, err
	}

	// Serial baseline.
	se, err := engine.Open(engine.Options{Table: cfg.Table, Dir: dir, Mode: mode, DiskBytesPerSec: diskRate})
	if err != nil {
		return 0, nil, err
	}
	rec := se.Recovery()
	serial := rec.RestoreDuration + rec.ReplayDuration
	if err := se.Close(); err != nil {
		return 0, nil, err
	}

	// The pipeline at each shard count.
	var rows []RecoveryTimeRow
	for _, sc := range shardCounts {
		pe, pres, err := engine.RecoverFrom(engine.Options{
			Table: cfg.Table, Dir: dir, Mode: mode, Shards: sc, DiskBytesPerSec: diskRate,
		})
		if err != nil {
			return 0, nil, err
		}
		rows = append(rows, RecoveryTimeRow{
			Mode:          mode,
			LogTicks:      logLen,
			Shards:        sc,
			Effective:     pe.Shards(),
			Restore:       pres.RestoreDuration,
			Replay:        pres.ReplayDuration,
			Total:         pres.TotalDuration,
			Overlap:       pres.Overlap(),
			ReplayedTicks: pres.ReplayedTicks,
		})
		if err := pe.Close(); err != nil {
			return 0, nil, err
		}
	}
	return serial, rows, nil
}
