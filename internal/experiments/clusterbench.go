package experiments

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The cluster benchmark measures the multi-server quantities the paper's
// Section 8 names on the real internal/cluster subsystem. Per (scenario,
// cluster size):
//
//   - synchronized tick overhead — the wall time of the barrier tick,
//     i.e. the slowest node gates every tick;
//   - coordinated world checkpoint — the wall of a cut at a common tick,
//     every node CheckpointAsOf the same tick concurrently;
//   - whole-world recovery — crash at a barrier, then recover with only the
//     axis's rung attached (cluster.Recover); the wall is the slowest node.
//     The disk rung restores the newest image and replays the WAL in
//     parallel; the standby rung promotes a warm mirror. The walls are
//     reported, never ordered (DESIGN.md "Why no peer-RAM rung").
//     Note the design point measured here: every node runs a full-geometry
//     engine over its partition, so per-node restore spans the whole image
//     while replay and tick apply scale with 1/nodes — see DESIGN.md;
//   - live migration — for sizes > 1, a slot-aligned sub-range moves
//     between nodes mid-run as a coordinated cut at a tick boundary; the row
//     reports the cut pause (range copy plus install on the new owner);
//   - identity — the recovered world must be byte-identical per cell to a
//     never-crashed single-node serial run of the same scenario.
//
// The window axis (Options.Windows) sweeps the coordination policy on the
// same runtime: a MaxSkew = 0 cell is the lock-step barrier world above; a
// MaxSkew > 0 cell runs the scenario with live cross-partition emissions —
// logged messages, a crash recovered through cut reconstruction, the disk
// rung only (migration and the other rungs are refused there) — and reports
// the coordinator's per-tick blocked time ("wait ms") beside the barrier's:
// the window drives it toward 0 where the barrier's is the slowest node's
// tick. The wait is a wall-clock reading; it is reported and bounds nothing.
//
// A cell that fails identity fails the run: this experiment doubles as the
// cluster's crash-equivalence acceptance check in the CI smoke matrix.

// ClusterBenchRow is one (scenario, cluster size, window, recovery mode)
// measurement.
type ClusterBenchRow struct {
	Scenario  string
	Nodes     int
	Effective int
	// MaxSkew is the coordination-window axis value: 0 is the lock-step
	// barrier, W > 0 lets nodes tick up to W apart (with logged messages and
	// cut-reconstruction recovery).
	MaxSkew int
	// WaitMs is the coordinator's mean per-tick blocked wall waiting on node
	// progress (cluster.BarrierWait; checkpoint and final drains excluded).
	// A non-zero window exists to drive this to ≈ 0.
	WaitMs float64
	// Mode is the recovery-mode axis value: the one rung the cell attaches
	// before Recover. Served lists the rung that actually recovered each
	// partition.
	Mode   string
	Served string
	// TickMs is the mean tick wall end to end: dispatch plus the final drain,
	// checkpoint excluded. At MaxSkew = 0 that is the barrier tick.
	TickMs float64
	// CheckpointMs is the coordinated world checkpoint wall.
	CheckpointMs float64
	// RecoveryMs is the whole-world parallel recovery wall; WorldTick the
	// common tick every node recovered to.
	RecoveryMs float64
	WorldTick  uint64
	// Migration leg (sizes > 1 at MaxSkew = 0): the cut tick (0 when no
	// migration ran) and the cut pause.
	MigCutTick uint64
	MigPauseMs float64
	// Identical: recovered world ≡ never-crashed single-node reference.
	Identical bool
}

// ClusterBenchResult aggregates the sweep.
type ClusterBenchResult struct {
	Rows     []ClusterBenchRow
	Tick     report.Figure // x = nodes, y = synchronized tick ms
	Recovery report.Figure // x = nodes, y = whole-world recovery ms
}

// Table renders the rows.
func (r *ClusterBenchResult) Table() *report.TextTable {
	t := report.NewTextTable()
	t.Header("scenario", "nodes", "eff", "window", "mode", "served", "tick ms", "wait ms", "ckpt ms",
		"recovery ms", "world tick", "mig pause ms", "identical")
	for _, row := range r.Rows {
		pause := "-"
		if row.MigCutTick > 0 {
			pause = fmt.Sprintf("%.2f", row.MigPauseMs)
		}
		t.Row(row.Scenario, fmt.Sprint(row.Nodes), fmt.Sprint(row.Effective),
			fmt.Sprint(row.MaxSkew), row.Mode, row.Served,
			fmt.Sprintf("%.3f", row.TickMs),
			fmt.Sprintf("%.3f", row.WaitMs),
			fmt.Sprintf("%.2f", row.CheckpointMs),
			fmt.Sprintf("%.2f", row.RecoveryMs),
			fmt.Sprint(row.WorldTick), pause, fmt.Sprint(row.Identical))
	}
	return t
}

// Identical reports whether every row passed the byte-identity check.
func (r *ClusterBenchResult) Identical() bool {
	for _, row := range r.Rows {
		if !row.Identical {
			return false
		}
	}
	return true
}

// ClusterBenchOptions trims the sweep; zero values mean defaults.
type ClusterBenchOptions struct {
	// Scenarios defaults to {hotspot, migration, flashcrowd}: the paper
	// baseline plus the two scenarios that stress cross-node balance.
	Scenarios []string
	// Sizes defaults to {1, 2, 4} cluster nodes.
	Sizes []int
	// WarmTicks/LiveTicks default to 16/12: warm ends with the coordinated
	// cut; the migration cut sits inside the live phase.
	WarmTicks int
	LiveTicks int
	// UpdatesPerTick defaults to the scale's Table 4 bold default.
	UpdatesPerTick int
	// Table overrides the scale geometry (tests).
	Table *gamestate.Table
	// DiskBytesPerSec throttles every node's backups: 0 means 10x the
	// scale's paper disk, negative unthrottled.
	DiskBytesPerSec float64
	// RecoveryModes is the recovery-mode axis; every (scenario, size) cell at
	// MaxSkew = 0 runs once per mode. Defaults to {disk, standby}.
	// A MaxSkew > 0 cell always recovers through the disk rung, the one
	// proven there.
	RecoveryModes []cluster.RecoveryMode
	// Windows is the coordination-window axis, a list of MaxSkew values.
	// Defaults to {0}, the paper's lock-step discipline; CI's smoke matrix
	// runs {0, 4}.
	Windows []int
}

func clusterBenchDefaults(s Scale, opts ClusterBenchOptions) ClusterBenchOptions {
	if len(opts.Scenarios) == 0 {
		opts.Scenarios = []string{"hotspot", "migration", "flashcrowd"}
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{1, 2, 4}
	}
	if opts.WarmTicks <= 0 {
		opts.WarmTicks = 16
	}
	if opts.LiveTicks <= 0 {
		opts.LiveTicks = 12
	}
	if opts.UpdatesPerTick <= 0 {
		opts.UpdatesPerTick = DefaultUpdates(s)
	}
	if opts.DiskBytesPerSec == 0 {
		opts.DiskBytesPerSec = 10 * Config(s).Params.DiskBandwidth
	} else if opts.DiskBytesPerSec < 0 {
		opts.DiskBytesPerSec = 0
	}
	if len(opts.RecoveryModes) == 0 {
		opts.RecoveryModes = []cluster.RecoveryMode{cluster.RecoveryDisk, cluster.RecoveryStandby}
	}
	if len(opts.Windows) == 0 {
		opts.Windows = []int{0}
	}
	return opts
}

// RunClusterBench sweeps scenario × cluster size over the real cluster
// subsystem.
func RunClusterBench(s Scale, seed int64, opts ClusterBenchOptions) (*ClusterBenchResult, error) {
	opts = clusterBenchDefaults(s, opts)
	table := Config(s).Table
	if opts.Table != nil {
		table = *opts.Table
	}
	res := &ClusterBenchResult{
		Tick: report.Figure{
			Title:  fmt.Sprintf("Cluster (%s scale): synchronized tick wall vs cluster size", s),
			XLabel: "# nodes", YLabel: "barrier tick [ms]",
		},
		Recovery: report.Figure{
			Title:  fmt.Sprintf("Cluster (%s scale): whole-world recovery vs cluster size", s),
			XLabel: "# nodes", YLabel: "world recovery [ms]",
		},
	}
	for _, name := range opts.Scenarios {
		src, err := workload.New(name, workload.Config{
			Table:          table,
			UpdatesPerTick: opts.UpdatesPerTick,
			Ticks:          opts.WarmTicks + opts.LiveTicks,
			Skew:           DefaultSkew,
			Seed:           seed,
		})
		if err != nil {
			return nil, err
		}
		// One tick series and one recovery series per mode, per window. Only
		// the disk rung is proven past the barrier.
		type windowAxis struct {
			window int
			modes  []cluster.RecoveryMode
			tick   report.Series
			rec    []report.Series
		}
		axes := make([]windowAxis, len(opts.Windows))
		for wi, window := range opts.Windows {
			ax := windowAxis{window: window, modes: opts.RecoveryModes, tick: report.Series{Name: name}}
			if window > 0 {
				ax.modes = []cluster.RecoveryMode{cluster.RecoveryDisk}
				ax.tick.Name = fmt.Sprintf("%s/w%d", name, window)
			}
			for _, mode := range ax.modes {
				ax.rec = append(ax.rec, report.Series{Name: ax.tick.Name + "/" + mode.String()})
			}
			axes[wi] = ax
		}
		for _, nodes := range opts.Sizes {
			for wi := range axes {
				ax := &axes[wi]
				for mi, mode := range ax.modes {
					row, err := clusterBenchCell(table, src, nodes, ax.window, mode, opts)
					if err != nil {
						return nil, fmt.Errorf("clusterbench %s/nodes=%d/w%d/%s: %w", name, nodes, ax.window, mode, err)
					}
					res.Rows = append(res.Rows, row)
					if mi == 0 {
						ax.tick.Add(float64(nodes), row.TickMs)
					}
					ax.rec[mi].Add(float64(nodes), row.RecoveryMs)
				}
			}
		}
		for _, ax := range axes {
			res.Tick.Add(ax.tick)
			for _, s := range ax.rec {
				res.Recovery.Add(s)
			}
		}
	}
	return res, nil
}

// clusterBenchCell measures one (scenario, size, window, recovery mode) cell
// end to end: tick the scenario through a coordinated cut — with a migration
// at sizes > 1 on the barrier, with live cross-partition emissions past it —
// drain, crash, recover with the cell's rung attached, and verify byte
// identity against the never-crashed serial reference.
func clusterBenchCell(table gamestate.Table, src workload.Source,
	nodes, window int, mode cluster.RecoveryMode, opts ClusterBenchOptions) (ClusterBenchRow, error) {
	eff := cluster.Uniform(table.NumObjects(), nodes).NumNodes
	row := ClusterBenchRow{Scenario: src.Name(), Nodes: nodes, Effective: eff, MaxSkew: window,
		Mode: mode.String()}
	defer enableTelemetry()()
	dir, err := os.MkdirTemp("", "mmocluster")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	// Past the barrier every cell exercises live message logging, and Recover
	// regenerates the in-flight messages from the same source. The serial
	// reference applies each tick's world batch first, then the emissions
	// whose delivery lands on the tick (origin tick t-window-1), in origin
	// order — the exact delivery order the cluster guarantees.
	var emit cluster.EmitFunc
	var delivered func(t int) []wal.Update
	if window > 0 {
		emit = benchEmit(table)
		delivered = func(t int) (out []wal.Update) {
			for j := 0; j < eff && t > window; j++ {
				out = append(out, emit(j, uint64(t-window-1))...)
			}
			return out
		}
	}
	ref, err := scenarioReference(table, src, delivered)
	if err != nil {
		return row, err
	}
	c, err := cluster.New(cluster.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		Nodes: nodes, MaxSkew: window, Emit: emit, DiskBytesPerSec: opts.DiskBytesPerSec,
	})
	if err != nil {
		return row, err
	}

	// The standby rung mirrors every node over the warm-standby stream.
	var standbys []*replication.Standby
	var shippers []*replication.Shipper
	if mode == cluster.RecoveryStandby {
		for i, n := range c.Nodes() {
			pc, sc := net.Pipe()
			sb, err := replication.StartStandby(engine.Options{
				Table: table, Dir: fmt.Sprintf("%s/standby-%d", dir, i),
				Mode: engine.ModeCopyOnUpdate, DiskBytesPerSec: opts.DiskBytesPerSec,
			}, sc)
			if err != nil {
				c.Close()
				return row, err
			}
			sh, err := replication.StartShipper(n.E, pc, replication.StreamOptions{MaxLagTicks: 64})
			if err != nil {
				sb.Close()
				c.Close()
				return row, err
			}
			select {
			case <-sb.Ready():
			case <-sb.Done():
				c.Close()
				return row, fmt.Errorf("standby %d died during bootstrap: %w", i, sb.Err())
			}
			standbys, shippers = append(standbys, sb), append(shippers, sh)
		}
	}
	total := opts.WarmTicks + opts.LiveTicks
	var cells []uint32
	var batch []wal.Update
	var tickWall time.Duration
	for t := 0; t < total; t++ {
		if row.Effective > 1 && window == 0 && t == total-2 {
			// Move half of node 0's first range to the last node.
			r := c.Routing().Current().NodeRanges(0)[0]
			rep, err := c.Migrate(r.Lo, r.Lo+(r.Hi-r.Lo)/2, row.Effective-1)
			if err != nil {
				c.Close()
				return row, err
			}
			row.MigCutTick, row.MigPauseMs = rep.CutTick, rep.Pause.Seconds()*1e3
		}
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		t0 := time.Now()
		if err := c.Tick(batch); err != nil {
			c.Close()
			return row, err
		}
		tickWall += time.Since(t0)
		if t == opts.WarmTicks-1 {
			// The coordinated cut; its drain is charged to the checkpoint wall,
			// not to the coordinator's tick wait.
			ck0 := time.Now()
			if _, err := c.CheckpointWorld(); err != nil {
				c.Close()
				return row, err
			}
			ckWall := time.Since(ck0)
			row.CheckpointMs = ckWall.Seconds() * 1e3
			if err := scrapedWallClose("cluster_last_checkpoint_wall_ns", ckWall); err != nil {
				c.Close()
				return row, err
			}
		}
	}
	// The wait before the final drain: the per-tick cost the coordinator
	// actually paid while the scenario ran.
	row.WaitMs = c.BarrierWait().Seconds() * 1e3 / float64(total)
	t0 := time.Now()
	if err := c.Join(); err != nil {
		c.Close()
		return row, err
	}
	row.TickMs = (tickWall + time.Since(t0)).Seconds() * 1e3 / float64(total)
	for i, sh := range shippers {
		if err := sh.AwaitAck(uint64(total-1), 30*time.Second); err != nil {
			c.Close()
			return row, fmt.Errorf("standby %d behind at the crash: %w", i, err)
		}
		sh.Stop() //nolint:errcheck // stream teardown
	}
	if err := c.Crash(); err != nil { // drained: every node at the final tick
		return row, err
	}

	rc, wr, err := cluster.Recover(dir, cluster.Options{
		Mode: engine.ModeCopyOnUpdate, DiskBytesPerSec: opts.DiskBytesPerSec,
		Standbys: standbys, Emit: emit,
	})
	for _, sb := range standbys {
		defer sb.Close()
	}
	if err != nil {
		return row, err
	}
	row.RecoveryMs = wr.Wall.Seconds() * 1e3
	row.WorldTick = wr.WorldTick
	if err := scrapedWallExact("recovery_last_world_wall_ns", wr.Wall); err != nil {
		rc.Close()
		return row, err
	}
	served := make([]string, len(wr.Modes))
	for i, m := range wr.Modes {
		served[i] = m.String()
	}
	row.Served = strings.Join(served, ",")
	// Served-mode honesty: the attached rung must be the one that recovered
	// every partition.
	for i, m := range wr.Modes {
		if m != mode {
			rc.Close()
			return row, fmt.Errorf("node %d recovered via %s, want %s (fallbacks: %s)",
				i, m, mode, wr.Fallbacks[i])
		}
	}
	got := make([]byte, table.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		rc.Close()
		return row, err
	}
	row.Identical = wr.WorldTick == uint64(total) && bytes.Equal(got, ref)
	return row, rc.Close()
}

// benchEmit is the clusterbench cross-partition action source for cells
// past the barrier: a small batch per (node, tick) targeting arbitrary owners, pure by
// construction (a hash of node, tick and index), so Recover can regenerate
// the in-flight messages. Values encode their provenance (tick, node,
// index).
func benchEmit(table gamestate.Table) cluster.EmitFunc {
	cells := uint64(table.NumObjects() * table.CellsPerObject())
	const perEmit = 4
	return func(node int, tick uint64) []wal.Update {
		out := make([]wal.Update, perEmit)
		for k := range out {
			h := (uint64(node)+1)*1_000_003 + (tick+1)*7919 + uint64(k)*104_729
			out[k] = wal.Update{Cell: uint32(h % cells), Value: uint32(tick)<<16 | uint32(node)<<8 | uint32(k)}
		}
		return out
	}
}
