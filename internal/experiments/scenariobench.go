package experiments

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The scenario benchmark sweeps workload scenario × checkpoint method ×
// shard count and byte-verifies every cell's two recovery paths. Each cell:
//
//  1. warm phase — a checkpointing engine applies the scenario's opening
//     ticks (apply throughput and checkpoint-pause overhead are read from
//     its Stats, with the async checkpointer live), then checkpoints until
//     the image covers the whole phase;
//  2. live phase — the directory reopens with ModeNone (pinning the cold
//     side's replay length exactly, the recoverytime trick) while a warm
//     standby mirrors the ticks over live WAL shipping; the primary then
//     "crashes" and warm takeover (seal + promote) is timed;
//  3. cold phase — the sharded recovery pipeline reopens the dead
//     primary's directory and is timed.
//
// Every cell verifies crash equivalence: the promoted standby AND the
// cold-recovered engine must both be byte-identical to a serial in-memory
// apply of the same scenario. A cell that fails identity is corrupt no
// matter how fast it was. The timings are informational; performance is
// gated by the repo benchmark (BENCHMARK.json), not here.

// ScenarioCell is one (scenario, method, shards) measurement.
type ScenarioCell struct {
	Scenario  string
	Method    string
	Shards    int
	Effective int
	// Warm phase, read from the checkpointing engine's Stats: updates
	// applied, apply throughput, and checkpoint-pause ms per tick.
	UpdatesApplied     int64
	ApplyUpdatesPerSec float64
	OverheadMsPerTick  float64
	// Cold path: the sharded recovery pipeline on the crashed directory.
	RecoveryMs    float64
	ReplayedTicks int
	// Warm path: primary death → promoted standby ready.
	TakeoverMs   float64
	StandbyTicks uint64
	// Identical: promoted standby and cold-recovered state both match the
	// serial reference byte-for-byte.
	Identical bool
}

// ScenarioBenchResult is the scenariobench sweep.
type ScenarioBenchResult struct {
	Cells []ScenarioCell
}

// Table renders the cells as an aligned text table.
func (r *ScenarioBenchResult) Table() *report.TextTable {
	t := report.NewTextTable()
	t.Header("scenario", "method", "shards", "eff",
		"apply Mupd/s", "ovh ms/tick", "recovery ms", "replayed", "takeover ms", "identical")
	for _, c := range r.Cells {
		t.Row(c.Scenario, c.Method, fmt.Sprint(c.Shards), fmt.Sprint(c.Effective),
			fmt.Sprintf("%.2f", c.ApplyUpdatesPerSec/1e6),
			fmt.Sprintf("%.3f", c.OverheadMsPerTick),
			fmt.Sprintf("%.2f", c.RecoveryMs),
			fmt.Sprint(c.ReplayedTicks),
			fmt.Sprintf("%.2f", c.TakeoverMs),
			fmt.Sprint(c.Identical))
	}
	return t
}

// ScenarioBenchOptions trims the sweep. Zero values mean the defaults;
// tests shrink the geometry.
type ScenarioBenchOptions struct {
	// Scenarios defaults to every registered workload scenario.
	Scenarios []string
	// Methods defaults to {naive-snapshot, copy-on-update}.
	Methods []engine.Mode
	// ShardCounts defaults to {1, 2, 8} — the crash-equivalence widths.
	ShardCounts []int
	// WarmTicks/LiveTicks default to 32/16.
	WarmTicks int
	LiveTicks int
	// UpdatesPerTick defaults to the scale's Table 4 bold default.
	UpdatesPerTick int
	// Table overrides the scale's geometry (tests).
	Table *gamestate.Table
	// DiskBytesPerSec throttles the backup devices: 0 means 10x the
	// scale's paper disk, negative means unthrottled.
	DiskBytesPerSec float64
}

// scenarioLagBudget is the shipper's in-flight tick bound.
const scenarioLagBudget = 8

// scenarioBenchDefaults fills in the zero fields.
func scenarioBenchDefaults(s Scale, opts ScenarioBenchOptions) ScenarioBenchOptions {
	if len(opts.Scenarios) == 0 {
		opts.Scenarios = workload.Names()
	}
	sort.Strings(opts.Scenarios)
	if len(opts.Methods) == 0 {
		opts.Methods = []engine.Mode{engine.ModeNaiveSnapshot, engine.ModeCopyOnUpdate}
	}
	if len(opts.ShardCounts) == 0 {
		opts.ShardCounts = []int{1, 2, 8}
	}
	if opts.WarmTicks <= 0 {
		opts.WarmTicks = 32
	}
	if opts.LiveTicks <= 0 {
		opts.LiveTicks = 16
	}
	if opts.UpdatesPerTick <= 0 {
		opts.UpdatesPerTick = DefaultUpdates(s)
	}
	if opts.DiskBytesPerSec == 0 {
		opts.DiskBytesPerSec = 10 * Config(s).Params.DiskBandwidth
	} else if opts.DiskBytesPerSec < 0 {
		opts.DiskBytesPerSec = 0 // engine convention: 0 = unthrottled
	}
	return opts
}

// RunScenarioBench runs the scenario × method × shard-count sweep.
func RunScenarioBench(s Scale, seed int64, opts ScenarioBenchOptions) (*ScenarioBenchResult, error) {
	opts = scenarioBenchDefaults(s, opts)
	table := Config(s).Table
	if opts.Table != nil {
		table = *opts.Table
	}
	res := &ScenarioBenchResult{}

	totalTicks := opts.WarmTicks + opts.LiveTicks
	for _, name := range opts.Scenarios {
		src, err := workload.New(name, workload.Config{
			Table:          table,
			UpdatesPerTick: opts.UpdatesPerTick,
			Ticks:          totalTicks,
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
			for _, shards := range opts.ShardCounts {
				cell, err := scenarioBenchCell(table, src, ref, mode, shards, opts)
				if err != nil {
					return nil, fmt.Errorf("scenariobench %s/%s/shards=%d: %w",
						name, mode, shards, err)
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res, nil
}

// scenarioReference applies the whole scenario serially in memory — the
// byte-exact ground truth for both recovery paths. extra, when non-nil,
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

// scenarioBenchCell measures one cell: apply throughput and checkpoint
// overhead (warm durable phase), warm-standby takeover, cold pipeline
// recovery, and byte identity of both outcomes against the serial reference.
func scenarioBenchCell(table gamestate.Table, src workload.Source, ref []byte,
	mode engine.Mode, shards int, opts ScenarioBenchOptions) (ScenarioCell, error) {
	cell := ScenarioCell{Scenario: src.Name(), Method: mode.String(), Shards: shards}
	var cells []uint32
	var batch []wal.Update

	pdir, err := os.MkdirTemp("", "mmobench-p")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "mmobench-s")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(sdir)

	// Warm phase: checkpointing engine, measured.
	p, err := engine.Open(engine.Options{
		Table: table, Dir: pdir, Mode: mode,
		Shards: shards, DiskBytesPerSec: opts.DiskBytesPerSec,
	})
	if err != nil {
		return cell, err
	}
	cell.Effective = p.Shards()
	for t := 0; t < opts.WarmTicks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := p.ApplyTick(batch); err != nil {
			p.Close()
			return cell, err
		}
	}
	st := p.Stats()
	cell.UpdatesApplied = st.UpdatesApplied
	if st.ApplyTotal > 0 {
		cell.ApplyUpdatesPerSec = float64(st.UpdatesApplied) / st.ApplyTotal.Seconds()
	}
	cell.OverheadMsPerTick = st.PauseTotal.Seconds() * 1e3 / float64(opts.WarmTicks)
	// The image must cover the warm phase, pinning cold replay to exactly
	// LiveTicks; CheckpointAsOf is the loop that guarantees it.
	if _, err := p.CheckpointAsOf(uint64(opts.WarmTicks - 1)); err != nil {
		p.Close()
		return cell, err
	}
	if err := p.Close(); err != nil {
		return cell, err
	}

	// Live phase: ModeNone primary (no further checkpoints → replay length
	// pinned) with a warm standby attached over live WAL shipping.
	p, err = engine.Open(engine.Options{
		Table: table, Dir: pdir, Mode: engine.ModeNone,
		Shards: shards, DiskBytesPerSec: opts.DiskBytesPerSec,
	})
	if err != nil {
		return cell, err
	}
	pc, sc := net.Pipe()
	sb, err := replication.StartStandby(engine.Options{
		Table: table, Dir: sdir, Mode: engine.ModeCopyOnUpdate,
		Shards: shards, DiskBytesPerSec: opts.DiskBytesPerSec,
	}, sc)
	if err != nil {
		p.Close()
		return cell, err
	}
	sh, err := replication.StartShipper(p, pc, replication.StreamOptions{MaxLagTicks: scenarioLagBudget})
	if err != nil {
		sb.Close()
		p.Close()
		return cell, err
	}
	fail := func(err error) (ScenarioCell, error) {
		sh.Stop() //nolint:errcheck
		sb.Close()
		p.Close()
		return cell, err
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		return fail(fmt.Errorf("standby died during bootstrap: %w", sb.Err()))
	}
	start := int(p.NextTick())
	for t := 0; t < opts.LiveTicks; t++ {
		cells, batch = workload.TickUpdates(src, start+t, cells, batch)
		if err := p.ApplyTick(batch); err != nil {
			return fail(err)
		}
	}
	lastTick := uint64(start+opts.LiveTicks) - 1
	if err := sh.AwaitAck(lastTick, 120*time.Second); err != nil {
		return fail(err)
	}

	// The crash: stop the stream, promote the standby, time the takeover.
	crash := time.Now()
	sh.Stop() //nolint:errcheck // the "crash"; stream errors are the point
	promoted, err := sb.Promote()
	if err != nil {
		sb.Close()
		p.Close()
		return cell, err
	}
	cell.TakeoverMs = time.Since(crash).Seconds() * 1e3
	cell.StandbyTicks = promoted.NextTick()
	warmIdentical := bytes.Equal(promoted.Store().Slab(), ref)
	if err := promoted.Close(); err != nil {
		p.Close()
		return cell, err
	}
	if err := p.Close(); err != nil {
		return cell, err
	}

	// Cold phase: the sharded pipeline on the dead primary's directory.
	cold, pres, err := engine.RecoverFrom(engine.Options{
		Table: table, Dir: pdir, Mode: mode,
		Shards: shards, DiskBytesPerSec: opts.DiskBytesPerSec,
	})
	if err != nil {
		return cell, err
	}
	cell.RecoveryMs = pres.TotalDuration.Seconds() * 1e3
	cell.ReplayedTicks = pres.ReplayedTicks
	cell.Identical = warmIdentical && bytes.Equal(cold.Store().Slab(), ref)
	return cell, cold.Close()
}
