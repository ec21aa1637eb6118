package experiments

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The recovery-time experiment measures the paper's headline quantity,
// ΔTrecovery = ΔTrestore + ΔTreplay (Section 4.2), at one crash point per
// cell of scenario × checkpoint method × shard count × log length L, on
// every recovery path the engine has. Each cell:
//
//  1. warm — a checkpointing engine applies recoveryWarmTicks ticks (apply
//     throughput and checkpoint-pause overhead are read from its Stats),
//     then CheckpointAsOf makes the image cover the whole phase;
//  2. live — the directory reopens with ModeNone (no checkpoints, so no log
//     rotation: the replayed log is exactly L ticks) while a warm standby
//     mirrors the ticks over live WAL shipping;
//  3. crash — the stream stops and the standby is promoted; the takeover
//     is timed;
//  4. cold — the sharded pipeline (engine.RecoverFrom) recovers the dead
//     primary's directory and reports its stages. Restore and replay
//     overlap, so the pipeline undercuts the sum of its stages; the overlap
//     column is the recovery time the pipelining buys back;
//  5. serial — engine.Open on the same directory gives the single-core
//     ΔTrestore + ΔTreplay baseline.
//
// The promoted, cold and serial slabs must each be byte-identical to a
// serial in-memory apply of the scenario. A cell that fails identity is
// corrupt no matter how fast it was. By default the backup devices emulate
// the paper's dedicated recovery disk (60 MB/s at full scale, 6 MB/s at
// quick), which gives restore a real duration for replay to hide under.
// The timings gate nothing; BENCHMARK.json is the repo's timing gate.

// RecoveryTimeRow is one (scenario, method, log length, shard count) cell.
type RecoveryTimeRow struct {
	Scenario string
	Mode     engine.Mode
	LogTicks int
	// Shards is the requested width, Effective the recovery plan's width.
	Shards    int
	Effective int
	// Warm phase, read from the checkpointing engine's Stats.
	ApplyUpdatesPerSec float64
	OverheadMsPerTick  float64
	// Restore and Replay are the pipeline's stage wall times (ΔTrestore,
	// ΔTreplay); Total is the pipeline wall. Overlap is the recovery time
	// pipelining the stages saved (recovery.ParallelResult.Overlap, never
	// negative).
	Restore time.Duration
	Replay  time.Duration
	Total   time.Duration
	Overlap time.Duration
	// Serial is ΔTrestore + ΔTreplay through the serial recovery path.
	Serial time.Duration
	// Takeover is the warm path: primary death → promoted standby ready.
	Takeover time.Duration
	// ReplayedTicks confirms the log-length axis took effect; StandbyTicks
	// is the tick the promoted standby applies next.
	ReplayedTicks int
	StandbyTicks  uint64
	// Identical: the promoted, cold and serial states all match the serial
	// reference byte for byte.
	Identical bool
}

// Cell names the row's cell, as errors and reports print it.
func (r *RecoveryTimeRow) Cell() string {
	return fmt.Sprintf("%s/%s/L=%d/shards=%d", r.Scenario, r.Mode, r.LogTicks, r.Shards)
}

// RecoveryTimeResult aggregates the sweep.
type RecoveryTimeResult struct {
	Rows []RecoveryTimeRow
	// One series per (scenario, method, L); x = shards.
	Restore report.Figure // y = ΔTrestore seconds
	Replay  report.Figure // y = ΔTreplay seconds
	Total   report.Figure // y = pipeline recovery seconds
}

// Table renders the rows as an aligned text table.
func (r *RecoveryTimeResult) Table() *report.TextTable {
	t := report.NewTextTable()
	t.Header("scenario", "method", "log ticks", "shards", "eff", "apply Mupd/s", "ovh ms/tick",
		"restore ms", "replay ms", "pipeline ms", "overlap ms", "serial ms", "takeover ms",
		"replayed", "identical")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	for _, row := range r.Rows {
		t.Row(row.Scenario, row.Mode.String(), fmt.Sprint(row.LogTicks),
			fmt.Sprint(row.Shards), fmt.Sprint(row.Effective),
			fmt.Sprintf("%.2f", row.ApplyUpdatesPerSec/1e6),
			fmt.Sprintf("%.3f", row.OverheadMsPerTick),
			ms(row.Restore), ms(row.Replay), ms(row.Total), ms(row.Overlap),
			ms(row.Serial), ms(row.Takeover),
			fmt.Sprint(row.ReplayedTicks), fmt.Sprint(row.Identical))
	}
	return t
}

// RecoveryTimeOptions trims the sweep. Zero values mean the defaults; tests
// shrink the geometry.
type RecoveryTimeOptions struct {
	// Scenarios defaults to every registered workload scenario.
	Scenarios []string
	// Methods defaults to {naive-snapshot, copy-on-update}.
	Methods []engine.Mode
	// ShardCounts defaults to {1, 2, 4, 8}.
	ShardCounts []int
	// LogTicks is the log-length axis L; it defaults to
	// DefaultRecoveryLogLens.
	LogTicks []int
	// UpdatesPerTick defaults to the scale's Table 4 bold default.
	UpdatesPerTick int
	// Table overrides the scale's geometry (tests).
	Table *gamestate.Table
	// DiskBytesPerSec throttles the backup devices: 0 means the scale's
	// paper recovery disk, negative means unthrottled.
	DiskBytesPerSec float64
}

// DefaultRecoveryLogLens returns the log-length axis for a scale.
func DefaultRecoveryLogLens(s Scale) []int {
	if s == Full {
		return []int{64, 256}
	}
	return []int{16, 64}
}

const (
	// recoveryWarmTicks is the pre-checkpoint workload that populates the
	// image and gives the standby a real snapshot to bootstrap from.
	recoveryWarmTicks = 8
	// recoveryLagBudget is the shipper's in-flight tick bound.
	recoveryLagBudget = 8
)

// RunRecoveryTime runs one crash point per scenario × method × L × shard
// count and measures every recovery path on it.
func RunRecoveryTime(s Scale, seed int64, opts RecoveryTimeOptions) (*RecoveryTimeResult, error) {
	if len(opts.Scenarios) == 0 {
		opts.Scenarios = workload.Names()
	}
	if len(opts.Methods) == 0 {
		opts.Methods = []engine.Mode{engine.ModeNaiveSnapshot, engine.ModeCopyOnUpdate}
	}
	if len(opts.ShardCounts) == 0 {
		opts.ShardCounts = []int{1, 2, 4, 8}
	}
	if len(opts.LogTicks) == 0 {
		opts.LogTicks = DefaultRecoveryLogLens(s)
	}
	if opts.UpdatesPerTick <= 0 {
		opts.UpdatesPerTick = DefaultUpdates(s)
	}
	if opts.DiskBytesPerSec == 0 {
		opts.DiskBytesPerSec = Config(s).Params.DiskBandwidth
	} else if opts.DiskBytesPerSec < 0 {
		opts.DiskBytesPerSec = 0 // engine convention: 0 = unthrottled
	}
	table := Config(s).Table
	if opts.Table != nil {
		table = *opts.Table
	}

	figure := func(stage, ylabel string) report.Figure {
		return report.Figure{
			Title:  fmt.Sprintf("Recovery pipeline (%s scale): %s vs shard count", s, stage),
			XLabel: "# shards", YLabel: ylabel,
		}
	}
	res := &RecoveryTimeResult{
		Restore: figure("restore stage", "ΔTrestore [sec]"),
		Replay:  figure("replay stage", "ΔTreplay [sec]"),
		Total:   figure("pipeline total", "recovery time [sec]"),
	}
	for _, name := range opts.Scenarios {
		for _, logTicks := range opts.LogTicks {
			src, err := workload.New(name, workload.Config{
				Table:          table,
				UpdatesPerTick: opts.UpdatesPerTick,
				Ticks:          recoveryWarmTicks + logTicks,
				Skew:           DefaultSkew,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			ref, err := scenarioReference(table, src, nil)
			if err != nil {
				return nil, err
			}
			for _, mode := range opts.Methods {
				key := fmt.Sprintf("%s/%s/L=%d", name, mode, logTicks)
				restore, replay, total := report.Series{Name: key}, report.Series{Name: key}, report.Series{Name: key}
				for _, shards := range opts.ShardCounts {
					row := RecoveryTimeRow{Scenario: name, Mode: mode, LogTicks: logTicks, Shards: shards}
					if err := recoveryCell(&row, table, src, ref, opts.DiskBytesPerSec); err != nil {
						return nil, fmt.Errorf("recoverytime %s: %w", row.Cell(), err)
					}
					res.Rows = append(res.Rows, row)
					restore.Add(float64(shards), row.Restore.Seconds())
					replay.Add(float64(shards), row.Replay.Seconds())
					total.Add(float64(shards), row.Total.Seconds())
				}
				res.Restore.Add(restore)
				res.Replay.Add(replay)
				res.Total.Add(total)
			}
		}
	}
	return res, nil
}

// scenarioReference applies the whole scenario serially in memory — the
// byte-exact ground truth for every recovery path. extra, when non-nil,
// appends further updates to each tick's batch (clusterbench's delivered
// cross-partition messages).
func scenarioReference(table gamestate.Table, src workload.Source, extra func(t int) []wal.Update) ([]byte, error) {
	e, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		return nil, err
	}
	var cells []uint32
	var batch []wal.Update
	for t := 0; t < src.NumTicks(); t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if extra != nil {
			batch = append(batch, extra(t)...)
		}
		if err := e.ApplyTick(batch); err != nil {
			e.Close()
			return nil, err
		}
	}
	ref := append([]byte(nil), e.Store().Slab()...)
	return ref, e.Close()
}

// recoveryCell runs row's crash point and fills in its measurements: the
// warm checkpointing phase, the live replicated phase, the timed promotion,
// then cold pipeline and serial recovery of the dead primary's directory,
// each compared with the reference ref.
func recoveryCell(row *RecoveryTimeRow, table gamestate.Table, src workload.Source, ref []byte, diskRate float64) error {
	pdir, err := os.MkdirTemp("", "mmorecov-p")
	if err != nil {
		return err
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "mmorecov-s")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	options := func(dir string, mode engine.Mode) engine.Options {
		return engine.Options{Table: table, Dir: dir, Mode: mode, Shards: row.Shards, DiskBytesPerSec: diskRate}
	}
	var cells []uint32
	var batch []wal.Update
	applyTick := func(e *engine.Engine, t int) error {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		return e.ApplyTick(batch)
	}

	// Warm: a checkpointing engine, measured. The image must cover the
	// whole phase so the replayed log is exactly the L live ticks;
	// CheckpointAsOf is the loop that guarantees it.
	p, err := engine.Open(options(pdir, row.Mode))
	if err != nil {
		return err
	}
	for t := 0; t < recoveryWarmTicks; t++ {
		if err := applyTick(p, t); err != nil {
			p.Close()
			return err
		}
	}
	st := p.Stats()
	if st.ApplyTotal > 0 {
		row.ApplyUpdatesPerSec = float64(st.UpdatesApplied) / st.ApplyTotal.Seconds()
	}
	row.OverheadMsPerTick = st.PauseTotal.Seconds() * 1e3 / recoveryWarmTicks
	if _, err := p.CheckpointAsOf(recoveryWarmTicks - 1); err != nil {
		p.Close()
		return err
	}
	if err := p.Close(); err != nil {
		return err
	}

	// Live: a ModeNone primary with a warm standby attached.
	p, err = engine.Open(options(pdir, engine.ModeNone))
	if err != nil {
		return err
	}
	defer p.Close()
	pc, sc := net.Pipe()
	sb, err := replication.StartStandby(options(sdir, engine.ModeCopyOnUpdate), sc)
	if err != nil {
		return err
	}
	defer sb.Close()
	sh, err := replication.StartShipper(p, pc, replication.StreamOptions{MaxLagTicks: recoveryLagBudget})
	if err != nil {
		return err
	}
	defer sh.Stop() //nolint:errcheck // stopped below on success; stream errors are the crash
	select {
	case <-sb.Ready():
	case <-sb.Done():
		return fmt.Errorf("standby died during bootstrap: %w", sb.Err())
	}
	start := int(p.NextTick())
	for t := 0; t < row.LogTicks; t++ {
		if err := applyTick(p, start+t); err != nil {
			return err
		}
	}
	if err := sh.AwaitAck(uint64(start+row.LogTicks-1), 120*time.Second); err != nil {
		return err
	}

	// Crash: stop the stream, promote the standby, time the takeover.
	crash := time.Now()
	sh.Stop() //nolint:errcheck // the "crash"; stream errors are the point
	promoted, err := sb.Promote()
	if err != nil {
		return err
	}
	row.Takeover = time.Since(crash)
	row.StandbyTicks = promoted.NextTick()
	identical := bytes.Equal(promoted.Store().Slab(), ref)
	if err := promoted.Close(); err != nil {
		return err
	}
	if err := p.Close(); err != nil {
		return err
	}

	// Cold: the sharded pipeline on the dead primary's directory.
	cold, pres, err := engine.RecoverFrom(options(pdir, row.Mode))
	if err != nil {
		return err
	}
	row.Effective = cold.Shards()
	row.Restore, row.Replay, row.Total = pres.RestoreDuration, pres.ReplayDuration, pres.TotalDuration
	row.Overlap = pres.Overlap()
	row.ReplayedTicks = pres.ReplayedTicks
	identical = identical && bytes.Equal(cold.Store().Slab(), ref)
	if err := cold.Close(); err != nil {
		return err
	}

	// Serial: the single-core baseline on the same directory.
	serial, err := engine.Open(options(pdir, row.Mode))
	if err != nil {
		return err
	}
	rec := serial.Recovery()
	row.Serial = rec.RestoreDuration + rec.ReplayDuration
	row.Identical = identical && bytes.Equal(serial.Store().Slab(), ref)
	return serial.Close()
}
