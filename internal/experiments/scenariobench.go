package experiments

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The scenario benchmark sweeps workload scenario × checkpoint method ×
// shard count across all three hot paths at once. Each cell:
//
//  0. throughput leg — the whole scenario is applied through an in-memory
//     engine (method's update path live, no disk in the way),
//     benchApplyRepeats times; each repeat is summarized by its median
//     per-tick rate and the report keeps the median of repeats (typical)
//     and the fastest repeat (best): the tick-apply throughput numbers
//     the perf gate watches. Wall-clock apply in the durable phases below
//     shares the CPU with flusher goroutines and throttle sleeps, which
//     on small hosts swings run-to-run by 2x — useless for a 25%
//     regression band;
//  1. warm phase — a checkpointing engine applies the scenario's opening
//     ticks (checkpoint-pause overhead is measured here, with the async
//     checkpointer live), then checkpoints until the image covers the
//     whole phase;
//  2. live phase — the directory reopens with ModeNone (pinning the cold
//     side's replay length exactly, the recoverytime trick) while a warm
//     standby mirrors the ticks over live WAL shipping; the primary then
//     "crashes" and warm takeover (seal + promote) is timed;
//  3. cold phase — the sharded recovery pipeline reopens the dead
//     primary's directory and is timed.
//
// Every cell also verifies crash equivalence: the promoted standby AND the
// cold-recovered engine must both be byte-identical to a serial in-memory
// apply of the same scenario. A cell that fails identity is corrupt no
// matter how fast it was.
//
// The numbers land in a machine-readable report (BENCH_scenarios.json) that
// the CI perf-gate compares against the committed bench_baseline.json —
// see benchgate.go for the tolerance rules.

// BenchCell is one (scenario, method, shards) measurement. Raw inputs
// (updates applied, apply wall) ride along so the gate can skip cells too
// small to time reliably.
type BenchCell struct {
	Scenario  string `json:"scenario"`
	Method    string `json:"method"`
	Shards    int    `json:"shards"`
	Effective int    `json:"effective"`
	// Throughput leg: in-memory apply of the whole scenario under this
	// method and shard count, benchApplyRepeats times. Each repeat is
	// summarized by its median per-tick apply rate (robust to
	// preemption/GC outlier ticks); ApplyUpdatesPerSec is the median of
	// those repeat summaries (the *typical* mode) and ApplyBest the
	// fastest repeat. The gate compares the rerun's best against the
	// baseline's typical, so scheduler mode-flapping on small hosts can't
	// fake a regression while a real slowdown still moves every repeat.
	// TickApplyMs is the typical median per-tick apply wall: the gate's
	// timer-reliability floor.
	UpdatesApplied     int64   `json:"updates_applied"`
	TickApplyMs        float64 `json:"tick_apply_ms"`
	ApplyUpdatesPerSec float64 `json:"apply_updates_per_sec"`
	ApplyBest          float64 `json:"apply_updates_per_sec_best"`
	// Warm-phase measurement: the async checkpointer is running.
	OverheadMsPerTick float64 `json:"checkpoint_overhead_ms_per_tick"`
	// Cold path: the sharded recovery pipeline on the crashed directory.
	RecoveryMs    float64 `json:"recovery_ms"`
	ReplayedTicks int     `json:"replayed_ticks"`
	// Warm path: primary death → promoted standby ready.
	TakeoverMs   float64 `json:"failover_takeover_ms"`
	StandbyTicks uint64  `json:"standby_ticks"`
	// Identical: promoted standby and cold-recovered state both match the
	// serial reference byte-for-byte.
	Identical bool `json:"identical"`
}

// BenchConfig pins everything that makes two reports comparable. The gate
// refuses to diff reports with different configs.
type BenchConfig struct {
	Scale           string   `json:"scale"`
	Seed            int64    `json:"seed"`
	UpdatesPerTick  int      `json:"updates_per_tick"`
	Skew            float64  `json:"skew"`
	WarmTicks       int      `json:"warm_ticks"`
	LiveTicks       int      `json:"live_ticks"`
	LagBudget       int      `json:"lag_budget"`
	Scenarios       []string `json:"scenarios"`
	Methods         []string `json:"methods"`
	ShardCounts     []int    `json:"shard_counts"`
	DiskBytesPerSec float64  `json:"disk_bytes_per_sec"`
}

// BenchReport is the scenariobench output: the schema CI archives and the
// perf gate diffs.
type BenchReport struct {
	Schema int         `json:"schema"`
	Config BenchConfig `json:"config"`
	// Host hints, informational only: the gate warns (not fails) when they
	// differ from the baseline's.
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"go_max_procs"`

	Cells []BenchCell `json:"cells"`
}

// benchSchema versions the report format.
const benchSchema = 1

// Table renders the cells as an aligned text table.
func (r *BenchReport) Table() *metrics.TextTable {
	t := metrics.NewTextTable()
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

// Identical reports whether every cell passed the byte-identity check.
func (r *BenchReport) Identical() bool {
	for _, c := range r.Cells {
		if !c.Identical {
			return false
		}
	}
	return true
}

// ScenarioBenchOptions trims the sweep. Zero values mean the defaults the
// committed baseline was generated with; tests shrink the geometry.
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
	// DiskBytesPerSec throttles the backup devices: 0 means the default
	// recovery-disk class for this bench — 10x the scale's paper disk, fast
	// enough for CI yet throttle-dominated so recovery times are stable —
	// and negative means unthrottled.
	DiskBytesPerSec float64
	// LagBudget is the shipper's in-flight tick bound (default 8).
	LagBudget int
}

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
	if opts.LagBudget <= 0 {
		opts.LagBudget = 8
	}
	return opts
}

// benchConfig assembles the comparability stamp a sweep with these
// (already-defaulted) options writes into its report.
func benchConfig(s Scale, seed int64, opts ScenarioBenchOptions, methods []string) BenchConfig {
	return BenchConfig{
		Scale:           s.String(),
		Seed:            seed,
		UpdatesPerTick:  opts.UpdatesPerTick,
		Skew:            DefaultSkew,
		WarmTicks:       opts.WarmTicks,
		LiveTicks:       opts.LiveTicks,
		LagBudget:       opts.LagBudget,
		Scenarios:       opts.Scenarios,
		Methods:         methods,
		ShardCounts:     opts.ShardCounts,
		DiskBytesPerSec: opts.DiskBytesPerSec,
	}
}

// ExpectedBenchConfig returns the BenchConfig a RunScenarioBench sweep with
// these options would stamp into its report, without running anything — the
// perf gate's preflight uses it to refuse a stale committed baseline before
// paying for the sweep.
func ExpectedBenchConfig(s Scale, seed int64, opts ScenarioBenchOptions) BenchConfig {
	opts = scenarioBenchDefaults(s, opts)
	methods := make([]string, len(opts.Methods))
	for i, m := range opts.Methods {
		methods[i] = m.String()
	}
	return benchConfig(s, seed, opts, methods)
}

// RunScenarioBench runs the scenario × method × shard-count sweep and
// returns the report.
func RunScenarioBench(s Scale, seed int64, opts ScenarioBenchOptions) (*BenchReport, error) {
	opts = scenarioBenchDefaults(s, opts)
	table := Config(s).Table
	if opts.Table != nil {
		table = *opts.Table
	}
	methods := make([]string, len(opts.Methods))
	for i, m := range opts.Methods {
		methods[i] = m.String()
	}
	rep := &BenchReport{
		Schema:     benchSchema,
		Config:     benchConfig(s, seed, opts, methods),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

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
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	return rep, nil
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
		cells, batch = scenarioTick(src, t, cells, batch)
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

// scenarioTick materializes tick t of the scenario as wal updates, in the
// canonical (tick, position) value encoding shared by every harness that
// compares states cell for cell.
func scenarioTick(src workload.Source, t int, cells []uint32, batch []wal.Update) ([]uint32, []wal.Update) {
	return workload.TickUpdates(src, t, cells, batch)
}

// benchApplyRepeats is how many times the throughput leg replays the
// scenario.
const benchApplyRepeats = 5

// benchApplyLeg measures tick-apply throughput: the whole scenario through
// an in-memory engine (checkpointer live against in-memory devices, no log,
// no throttle), benchApplyRepeats times with per-tick instrumentation. Each
// repeat is summarized by its median per-tick rate (tick updates / tick
// apply wall); the leg reports the median of the repeat summaries (typical)
// and the fastest repeat (best), plus the typical median per-tick wall.
func benchApplyLeg(table gamestate.Table, src workload.Source, mode engine.Mode,
	shards int) (updates int64, tickApplyMs, typical, best float64, err error) {
	var cells []uint32
	var batch []wal.Update
	ticks := src.NumTicks()
	counts := make([]int, ticks)
	rates := make([]float64, 0, ticks)
	walls := make([]float64, 0, ticks)
	var repRates, repWalls []float64
	for rep := 0; rep < benchApplyRepeats; rep++ {
		e, err := engine.Open(engine.Options{
			Table: table, Mode: mode, InMemory: true, Shards: shards, KeepTickStats: true,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for t := 0; t < ticks; t++ {
			cells, batch = scenarioTick(src, t, cells, batch)
			counts[t] = len(batch)
			if err := e.ApplyTick(batch); err != nil {
				e.Close()
				return 0, 0, 0, 0, err
			}
		}
		st := e.Stats()
		if err := e.Close(); err != nil {
			return 0, 0, 0, 0, err
		}
		updates = st.UpdatesApplied
		rates, walls = rates[:0], walls[:0]
		for t, tt := range st.TickTimings {
			if sec := tt.Apply.Seconds(); sec > 0 && t < ticks {
				rates = append(rates, float64(counts[t])/sec)
				walls = append(walls, sec*1e3)
			}
		}
		repRates = append(repRates, median(rates))
		repWalls = append(repWalls, median(walls))
	}
	best = repRates[0]
	for _, r := range repRates {
		if r > best {
			best = r
		}
	}
	return updates, median(repWalls), median(repRates), best, nil
}

// median returns the middle value of xs (sorting a copy); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// scenarioBenchCell measures one cell: apply throughput (in-memory leg),
// checkpoint overhead (warm durable phase), warm-standby takeover, cold
// pipeline recovery, and byte identity of both outcomes against the serial
// reference.
func scenarioBenchCell(table gamestate.Table, src workload.Source, ref []byte,
	mode engine.Mode, shards int, opts ScenarioBenchOptions) (BenchCell, error) {
	cell := BenchCell{Scenario: src.Name(), Method: mode.String(), Shards: shards}
	var cells []uint32
	var batch []wal.Update

	var err error
	cell.UpdatesApplied, cell.TickApplyMs, cell.ApplyUpdatesPerSec, cell.ApplyBest, err =
		benchApplyLeg(table, src, mode, shards)
	if err != nil {
		return cell, err
	}

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
		cells, batch = scenarioTick(src, t, cells, batch)
		if err := p.ApplyTick(batch); err != nil {
			p.Close()
			return cell, err
		}
	}
	cell.OverheadMsPerTick = p.Stats().PauseTotal.Seconds() * 1e3 / float64(opts.WarmTicks)
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
	sh, err := replication.StartShipper(p, pc, replication.StreamOptions{MaxLagTicks: opts.LagBudget})
	if err != nil {
		sb.Close()
		p.Close()
		return cell, err
	}
	fail := func(err error) (BenchCell, error) {
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
		cells, batch = scenarioTick(src, start+t, cells, batch)
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
