package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// The shard-scaling experiment measures the sharded engine's two tick-side
// costs as the shard count grows: tick apply, which one mutator goroutine
// runs whatever the count (the column shows what the partition's bookkeeping
// costs it), and the checkpoint flush, which the shards parallelize. It is
// the engine-level counterpart of the multiserver extension: instead of
// partitioning players across servers, it partitions the object space across
// cores, the direction the scalable-state-management surveys
// (arXiv:1505.01864, arXiv:2203.01107) point for single-node scale.

// ShardScalingRow is one shard count's measurement.
type ShardScalingRow struct {
	Shards    int // requested
	Effective int // after word-alignment folding
	// ApplyUpdatesPerSec is update-apply throughput (updates applied /
	// apply wall time).
	ApplyUpdatesPerSec float64
	// FlushWall is the wall time of one full-state checkpoint flush.
	FlushWall time.Duration
	// FlushBytes is the image size flushed.
	FlushBytes int64
}

// ShardScalingResult aggregates the experiment.
type ShardScalingResult struct {
	Rows  []ShardScalingRow
	Apply metrics.Figure // x = shards, y = M updates/sec
	Flush metrics.Figure // x = shards, y = flush seconds
}

// Table renders the rows as an aligned text table.
func (r *ShardScalingResult) Table() *metrics.TextTable {
	t := metrics.NewTextTable()
	t.Header("shards", "effective", "apply Mupd/s", "flush ms", "flush MB")
	for _, row := range r.Rows {
		t.Row(fmt.Sprint(row.Shards), fmt.Sprint(row.Effective),
			fmt.Sprintf("%.2f", row.ApplyUpdatesPerSec/1e6),
			fmt.Sprintf("%.2f", row.FlushWall.Seconds()*1e3),
			fmt.Sprintf("%.1f", float64(row.FlushBytes)/1e6))
	}
	return t
}

// RunShardScaling measures apply throughput and full-image flush wall time
// for each requested shard count, at the scale's table geometry and default
// update rate. Apply runs against in-memory devices (pure CPU); flush runs
// against unthrottled files (real positional I/O, parallel flushers).
func RunShardScaling(s Scale, seed int64, shardCounts []int) (*ShardScalingResult, error) {
	cfg := Config(s)
	updates := DefaultUpdates(s)
	res := &ShardScalingResult{
		Apply: metrics.Figure{
			Title:  fmt.Sprintf("Sharded engine (%s scale): apply throughput", s),
			XLabel: "# shards", YLabel: "M updates/sec",
		},
		Flush: metrics.Figure{
			Title:  fmt.Sprintf("Sharded engine (%s scale): full-image flush wall time", s),
			XLabel: "# shards", YLabel: "flush time [sec]",
		},
	}
	applySeries := metrics.Series{Name: "apply"}
	flushSeries := metrics.Series{Name: "parallel flush"}

	for _, sc := range shardCounts {
		row := ShardScalingRow{Shards: sc}

		// Apply half: measured through the engine's own apply timer so WAL
		// and checkpoint pauses don't blur it.
		src, err := zipfSource(cfg, updates, 64, DefaultSkew, seed)
		if err != nil {
			return nil, err
		}
		e, err := engine.Open(engine.Options{
			Table: cfg.Table, Mode: engine.ModeCopyOnUpdate,
			InMemory: true, Shards: sc,
		})
		if err != nil {
			return nil, err
		}
		row.Effective = e.Shards()
		var cells []uint32
		batch := make([]wal.Update, 0, updates)
		const ticks = 48
		for t := 0; t < ticks; t++ {
			cells = src.AppendTick(t, cells[:0])
			batch = batch[:0]
			for _, c := range cells {
				batch = append(batch, wal.Update{Cell: c, Value: uint32(t)})
			}
			if err := e.ApplyTick(batch); err != nil {
				e.Close()
				return nil, err
			}
		}
		st := e.Stats()
		if st.ApplyTotal > 0 {
			row.ApplyUpdatesPerSec = float64(st.UpdatesApplied) / st.ApplyTotal.Seconds()
		}
		if err := e.Close(); err != nil {
			return nil, err
		}

		// Flush half: one full-state image through the parallel flushers,
		// Dribble mode so every checkpoint writes the whole state.
		dir, err := os.MkdirTemp("", "mmoshard")
		if err != nil {
			return nil, err
		}
		fe, err := engine.Open(engine.Options{
			Table: cfg.Table, Dir: dir, Mode: engine.ModeDribble, Shards: sc,
		})
		if err == nil {
			err = fe.ApplyTick(batch)
		}
		if err == nil {
			var info engine.CheckpointInfo
			info, err = fe.CheckpointNow()
			row.FlushWall = info.Duration
			row.FlushBytes = info.Bytes
		}
		if fe != nil {
			if cerr := fe.Close(); err == nil {
				err = cerr
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}

		applySeries.Add(float64(sc), row.ApplyUpdatesPerSec/1e6)
		flushSeries.Add(float64(sc), row.FlushWall.Seconds())
		res.Rows = append(res.Rows, row)
	}
	res.Apply.Add(applySeries)
	res.Flush.Add(flushSeries)
	return res, nil
}
