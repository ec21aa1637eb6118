package experiments

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/wal"
)

// The failover-time experiment measures what the replication subsystem buys
// over the paper's availability story: with a warm standby mirroring the
// primary over live WAL shipping, a primary failure is survived by
// *promotion* (seal the stream at the last complete tick, flip the standby
// to primary) instead of *cold recovery* (restore the newest checkpoint
// image from the recovery disk, replay the log). The experiment builds a
// real primary/standby pair over an in-process connection, runs a workload,
// kills the primary, and measures the warm takeover wall time against cold
// recovery — both the PR-2 parallel pipeline and the paper's serial sum —
// on the very same on-disk state, verifying the promoted standby is
// byte-identical to what cold recovery reconstructs.
//
// Axes: update rate (shipped bytes per tick), replay-lag budget (the
// shipper's bound on in-flight ticks — the knob that trades primary-side
// stalling against standby staleness), and shard count (both engines and
// the cold pipeline run at the same width).

// FailoverTimeRow is one (updates, lag budget, shards) measurement.
type FailoverTimeRow struct {
	Updates   int
	LagBudget int
	// Shards is the requested width, Effective the plan's width.
	Shards    int
	Effective int
	// LogTicks is the log length behind the crash point (the cold side's
	// replay axis; the warm side has already applied these ticks).
	LogTicks int
	// Takeover is the warm path: primary death → promoted engine ready.
	Takeover time.Duration
	// ColdPipeline is engine.RecoverFrom's wall time on the dead primary's
	// directory at the same shard count; ColdSerial is the paper's
	// ΔTrestore + ΔTreplay through the serial path.
	ColdPipeline time.Duration
	ColdSerial   time.Duration
	// StandbyTicks is the tick count the standby had applied at promotion.
	StandbyTicks uint64
	// ColdReplayedTicks confirms the cold side replayed exactly the
	// LogTicks axis (the live phase runs checkpoint-free, so the log
	// length is pinned).
	ColdReplayedTicks int
	// Identical reports the promoted standby was byte-identical to the
	// cold-recovered primary image.
	Identical bool
}

// Speedup is the availability win: cold pipeline recovery over warm
// takeover.
func (r *FailoverTimeRow) Speedup() float64 {
	if r.Takeover <= 0 {
		return 0
	}
	return r.ColdPipeline.Seconds() / r.Takeover.Seconds()
}

// FailoverTimeResult aggregates the sweep.
type FailoverTimeResult struct {
	Rows []FailoverTimeRow
	// Takeover and Cold plot seconds vs shard count, one series per
	// (updates, lag) combination.
	Takeover metrics.Figure
	Cold     metrics.Figure
}

// Table renders the rows as an aligned text table.
func (r *FailoverTimeResult) Table() *metrics.TextTable {
	t := metrics.NewTextTable()
	t.Header("updates/tick", "lag budget", "shards", "eff", "log ticks",
		"warm takeover ms", "cold pipeline ms", "cold serial ms", "speedup", "identical")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	for _, row := range r.Rows {
		t.Row(fmt.Sprint(row.Updates), fmt.Sprint(row.LagBudget),
			fmt.Sprint(row.Shards), fmt.Sprint(row.Effective), fmt.Sprint(row.LogTicks),
			ms(row.Takeover), ms(row.ColdPipeline), ms(row.ColdSerial),
			fmt.Sprintf("%.0fx", row.Speedup()), fmt.Sprint(row.Identical))
	}
	return t
}

// failoverWarmTicks is the pre-attach workload that gives the standby a
// real snapshot to bootstrap from (and the cold side an image to restore).
const failoverWarmTicks = 8

// DefaultFailoverLogTicks returns the post-checkpoint log length for a
// scale — the cold side's replay work at the crash point.
func DefaultFailoverLogTicks(s Scale) int {
	if s == Full {
		return 64
	}
	return 32
}

// RunFailoverTime sweeps update rate × replay-lag budget × shard count.
// Nil axes default to {DefaultUpdates/4, DefaultUpdates}, {1, 16} and
// {1, 4}; logTicks <= 0 to the scale default. diskBytesPerSec follows the
// recoverytime convention: 0 = the scale's paper-faithful recovery disk,
// negative = unthrottled.
func RunFailoverTime(s Scale, seed int64, updateCounts, lagBudgets, shardCounts []int,
	logTicks int, diskBytesPerSec float64) (*FailoverTimeResult, error) {
	if diskBytesPerSec == 0 {
		diskBytesPerSec = Config(s).Params.DiskBandwidth
	} else if diskBytesPerSec < 0 {
		diskBytesPerSec = 0 // engine convention: 0 = unthrottled
	}
	if len(updateCounts) == 0 {
		updateCounts = []int{DefaultUpdates(s) / 4, DefaultUpdates(s)}
	}
	if len(lagBudgets) == 0 {
		lagBudgets = []int{1, 16}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4}
	}
	if logTicks <= 0 {
		logTicks = DefaultFailoverLogTicks(s)
	}

	res := &FailoverTimeResult{
		Takeover: metrics.Figure{
			Title:  fmt.Sprintf("Failover (%s scale): warm-standby takeover vs shard count", s),
			XLabel: "# shards", YLabel: "takeover time [sec]",
		},
		Cold: metrics.Figure{
			Title:  fmt.Sprintf("Failover (%s scale): cold pipeline recovery vs shard count", s),
			XLabel: "# shards", YLabel: "recovery time [sec]",
		},
	}
	for _, updates := range updateCounts {
		for _, lag := range lagBudgets {
			key := fmt.Sprintf("u=%d/lag=%d", updates, lag)
			warmSeries := metrics.Series{Name: key}
			coldSeries := metrics.Series{Name: key}
			for _, shards := range shardCounts {
				row, err := failoverPoint(s, seed, updates, lag, shards, logTicks, diskBytesPerSec)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
				warmSeries.Add(float64(shards), row.Takeover.Seconds())
				coldSeries.Add(float64(shards), row.ColdPipeline.Seconds())
			}
			res.Takeover.Add(warmSeries)
			res.Cold.Add(coldSeries)
		}
	}
	return res, nil
}

// failoverPoint runs one primary/standby pair to a crash and measures both
// recovery paths on the outcome.
func failoverPoint(s Scale, seed int64, updates, lag, shards, logTicks int,
	diskRate float64) (FailoverTimeRow, error) {
	var row FailoverTimeRow
	row.Updates, row.LagBudget, row.Shards, row.LogTicks = updates, lag, shards, logTicks
	cfg := Config(s)
	src, err := zipfSource(cfg, updates, failoverWarmTicks+logTicks, DefaultSkew, seed)
	if err != nil {
		return row, err
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
	pdir, err := os.MkdirTemp("", "mmofail-p")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "mmofail-s")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(sdir)

	// Phase 1: a checkpointing primary lands an image that covers the warm
	// phase, then closes. The live phase below reopens the directory with
	// ModeNone (no further checkpoints, so no log rotation or pruning),
	// which pins the cold side's replay work to exactly logTicks — the
	// same two-phase shape recoverytime measures, so the two experiments'
	// cold numbers are comparable.
	p, err := engine.Open(engine.Options{
		Table: cfg.Table, Dir: pdir, Mode: engine.ModeCopyOnUpdate,
		Shards: shards, DiskBytesPerSec: diskRate,
	})
	if err != nil {
		return row, err
	}
	row.Effective = p.Shards()
	for t := 0; t < failoverWarmTicks; t++ {
		if err := p.ApplyTick(tickBatch(t)); err != nil {
			p.Close()
			return row, err
		}
	}
	for {
		info, err := p.CheckpointNow()
		if err != nil {
			p.Close()
			return row, err
		}
		if info.AsOfTick >= failoverWarmTicks-1 {
			break
		}
	}
	if err := p.Close(); err != nil {
		return row, err
	}
	p, err = engine.Open(engine.Options{
		Table: cfg.Table, Dir: pdir, Mode: engine.ModeNone,
		Shards: shards, DiskBytesPerSec: diskRate,
	})
	if err != nil {
		return row, err
	}

	// Phase 2: attach the standby to the running primary — bootstrap
	// snapshot, then live shipping — and run the logged tail.
	pc, sc := net.Pipe()
	sb, err := replication.StartStandby(engine.Options{
		Table: cfg.Table, Dir: sdir, Mode: engine.ModeCopyOnUpdate,
		Shards: shards, DiskBytesPerSec: diskRate,
	}, sc)
	if err != nil {
		p.Close()
		return row, err
	}
	sh, err := replication.StartShipper(p, pc, replication.StreamOptions{MaxLagTicks: lag})
	if err != nil {
		sb.Close()
		p.Close()
		return row, err
	}
	fail := func(err error) (FailoverTimeRow, error) {
		sh.Stop() //nolint:errcheck
		sb.Close()
		p.Close()
		return row, err
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		return fail(fmt.Errorf("standby died during bootstrap: %w", sb.Err()))
	}
	start := int(p.NextTick())
	for t := 0; t < logTicks; t++ {
		if err := p.ApplyTick(tickBatch(start + t)); err != nil {
			return fail(err)
		}
	}
	lastTick := uint64(start+logTicks) - 1
	if err := sh.AwaitAck(lastTick, 120*time.Second); err != nil {
		return fail(err)
	}

	// The crash: the primary stops mid-flight. Takeover is everything the
	// warm path needs — notice the dead stream, seal it at the last
	// complete tick, sync the standby's own log, flip to primary.
	crash := time.Now()
	sh.Stop() //nolint:errcheck // the "crash"; stream errors are the point
	promoted, err := sb.Promote()
	if err != nil {
		sb.Close()
		p.Close()
		return row, err
	}
	row.Takeover = time.Since(crash)
	row.StandbyTicks = promoted.NextTick()
	warmSlab := append([]byte(nil), promoted.Store().Slab()...)
	if err := promoted.Close(); err != nil {
		p.Close()
		return row, err
	}
	if err := p.Close(); err != nil {
		return row, err
	}

	// Cold path on the same directory: the parallel pipeline at the same
	// width, then the serial baseline.
	cold, pres, err := engine.RecoverFrom(engine.Options{
		Table: cfg.Table, Dir: pdir, Mode: engine.ModeCopyOnUpdate,
		Shards: shards, DiskBytesPerSec: diskRate,
	})
	if err != nil {
		return row, err
	}
	row.ColdPipeline = pres.TotalDuration
	row.ColdReplayedTicks = pres.ReplayedTicks
	row.Identical = bytes.Equal(cold.Store().Slab(), warmSlab)
	if err := cold.Close(); err != nil {
		return row, err
	}
	serial, err := engine.Open(engine.Options{
		Table: cfg.Table, Dir: pdir, Mode: engine.ModeCopyOnUpdate, DiskBytesPerSec: diskRate,
	})
	if err != nil {
		return row, err
	}
	rec := serial.Recovery()
	row.ColdSerial = rec.RestoreDuration + rec.ReplayDuration
	if err := serial.Close(); err != nil {
		return row, err
	}
	return row, nil
}
