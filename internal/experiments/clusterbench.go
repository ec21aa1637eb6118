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
	"repro/internal/metrics"
	"repro/internal/peerram"
	"repro/internal/replication"
	"repro/internal/skew"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The cluster benchmark measures the multi-server quantities the paper's
// Section 8 names and internal/experiments/multiserver.go only models
// analytically — RunClusterBench supersedes that model with numbers from
// the real internal/cluster subsystem (RunMultiServer remains its
// analytical companion for what-if sweeps). Per (scenario, cluster size):
//
//   - synchronized tick overhead — the wall time of the barrier tick,
//     i.e. the slowest node gates every tick, exactly the max-over-servers
//     cost the model predicts;
//   - coordinated world checkpoint — the wall of a cut at a common tick,
//     every node CheckpointAsOf the same tick concurrently;
//   - whole-world recovery — crash at a barrier, then recover under each
//     recovery mode on the axis (cluster.Recover); the wall is the slowest
//     node. The disk rung restores the newest image and replays the WAL in
//     parallel; the standby rung promotes a warm mirror; the peer-RAM rung
//     streams a surviving peer's compressed in-RAM replica through the same
//     pipeline, and its row also reports the replica RAM paid per node.
//     When the disk is throttled, peer-RAM recovery must come in strictly
//     below the disk pipeline at sizes > 1 — the cell fails otherwise.
//     Note the design point measured here: every node runs a full-geometry
//     engine over its partition, so per-node restore spans the whole image
//     while replay and tick apply scale with 1/nodes — see DESIGN.md;
//   - live migration — for sizes > 1, a slot-aligned sub-range moves
//     between nodes mid-run over the replication range-transfer protocol;
//     the row reports the live window, the cutover install pause, and the
//     blackout tick count, which must be zero;
//   - identity — the recovered world must be byte-identical per cell to a
//     never-crashed single-node serial run of the same scenario.
//
// The coordination axis (Options.Coordinations) puts the bounded-skew
// discipline next to the barrier on the same sweep: a "skew" cell runs the
// scenario with live cross-partition emissions under internal/skew —
// uncoordinated per-node cuts instead of the coordinated world checkpoint,
// a crash recovered through cut reconstruction (skew.Recover) instead of
// the common-tick invariant — and reports the coordinator's per-tick
// blocked time ("wait ms") beside the barrier's. The axis's headline claim
// is that the skew coordinator's wait is ≈ 0 where the barrier's is the
// slowest node's tick; on the imbalanced scenarios (migration, flashcrowd)
// at sizes > 1 a skew cell whose wait is not ≈ 0 fails the run.
//
// A cell that fails identity or blacks out a tick fails the run: this
// experiment doubles as the cluster's crash-equivalence acceptance check in
// the CI smoke matrix.

// ClusterBenchRow is one (scenario, cluster size, coordination, recovery
// mode) measurement.
type ClusterBenchRow struct {
	Scenario  string
	Nodes     int
	Effective int
	// Coordination is the tick-coordination axis value: "barrier" (lock-step
	// synchronized ticks, coordinated cut) or "skew" (bounded-skew ticks,
	// uncoordinated per-node cuts reconciled at recovery by skew.Recover).
	Coordination string
	// WaitMs is the coordinator's mean per-tick blocked wall: the tick/action
	// barrier wait for barrier cells (cluster.BarrierWait), the skew-window
	// wait for skew cells (skew.Cluster.WindowWait, checkpoint drains
	// excluded). Bounded skew exists to drive this to ≈ 0.
	WaitMs float64
	// Mode is the recovery-mode axis value requested at Recover time;
	// Served lists the rung that actually recovered each partition (a
	// single-node peerram cell legitimately falls back to disk: it has no
	// peer).
	Mode   string
	Served string
	// ReplicaKB is the mean compressed replica RAM per node a peer-RAM cell
	// paid for its recovery speed (0 for the other modes).
	ReplicaKB float64
	// TickMs is the mean synchronized (barrier) tick wall.
	TickMs float64
	// CheckpointMs is the coordinated world checkpoint wall.
	CheckpointMs float64
	// RecoveryMs is the whole-world parallel recovery wall; WorldTick the
	// common tick every node recovered to.
	RecoveryMs float64
	WorldTick  uint64
	// Migration leg (sizes > 1): live window in ticks, cutover install
	// pause, blackout ticks (must be 0). MigTicks is -1 when no migration
	// ran.
	MigTicks     int
	MigInstallMs float64
	MigBlackout  int
	// Identical: recovered world ≡ never-crashed single-node reference.
	Identical bool
}

// ClusterBenchResult aggregates the sweep.
type ClusterBenchResult struct {
	Rows     []ClusterBenchRow
	Tick     metrics.Figure // x = nodes, y = synchronized tick ms
	Recovery metrics.Figure // x = nodes, y = whole-world recovery ms
}

// Table renders the rows.
func (r *ClusterBenchResult) Table() *metrics.TextTable {
	t := metrics.NewTextTable()
	t.Header("scenario", "nodes", "eff", "coord", "mode", "served", "tick ms", "wait ms", "ckpt ms",
		"recovery ms", "replica KB", "world tick", "mig ticks", "install ms", "blackout", "identical")
	for _, row := range r.Rows {
		mig := "-"
		inst := "-"
		bo := "-"
		if row.MigTicks >= 0 {
			mig = fmt.Sprint(row.MigTicks)
			inst = fmt.Sprintf("%.2f", row.MigInstallMs)
			bo = fmt.Sprint(row.MigBlackout)
		}
		rep := "-"
		if row.ReplicaKB > 0 {
			rep = fmt.Sprintf("%.1f", row.ReplicaKB)
		}
		t.Row(row.Scenario, fmt.Sprint(row.Nodes), fmt.Sprint(row.Effective),
			row.Coordination, row.Mode, row.Served,
			fmt.Sprintf("%.3f", row.TickMs),
			fmt.Sprintf("%.3f", row.WaitMs),
			fmt.Sprintf("%.2f", row.CheckpointMs),
			fmt.Sprintf("%.2f", row.RecoveryMs), rep,
			fmt.Sprint(row.WorldTick), mig, inst, bo, fmt.Sprint(row.Identical))
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
	// cut; the migration window sits inside the live phase.
	WarmTicks int
	LiveTicks int
	// UpdatesPerTick defaults to the scale's Table 4 bold default.
	UpdatesPerTick int
	// Table overrides the scale geometry (tests).
	Table *gamestate.Table
	// DiskBytesPerSec throttles every node's backups: 0 means the
	// scenariobench default (10x the scale's paper disk), negative
	// unthrottled.
	DiskBytesPerSec float64
	// RecoveryModes is the recovery-mode axis; every (scenario, size) cell
	// runs once per mode. Defaults to {disk, standby, peerram}.
	RecoveryModes []cluster.RecoveryMode
	// Coordinations is the tick-coordination axis: "barrier" and/or "skew".
	// Defaults to {barrier}, the paper's lock-step discipline; CI's smoke
	// matrix opts into both. The recovery-mode axis applies to barrier cells
	// only — a skew cell always recovers through cut reconstruction, which
	// rides the disk pipeline.
	Coordinations []string
	// MaxSkew is the bounded-skew window for skew cells (default 4).
	MaxSkew int
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
		opts.RecoveryModes = []cluster.RecoveryMode{
			cluster.RecoveryDisk, cluster.RecoveryStandby, cluster.RecoveryPeerRAM,
		}
	}
	if len(opts.Coordinations) == 0 {
		opts.Coordinations = []string{"barrier"}
	}
	if opts.MaxSkew <= 0 {
		opts.MaxSkew = 4
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
	for _, coord := range opts.Coordinations {
		if coord != "barrier" && coord != cluster.CoordinationSkew {
			return nil, fmt.Errorf("clusterbench: unknown coordination %q (want barrier or skew)", coord)
		}
	}
	res := &ClusterBenchResult{
		Tick: metrics.Figure{
			Title:  fmt.Sprintf("Cluster (%s scale): synchronized tick wall vs cluster size", s),
			XLabel: "# nodes", YLabel: "barrier tick [ms]",
		},
		Recovery: metrics.Figure{
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
		ref, err := scenarioReference(table, src)
		if err != nil {
			return nil, err
		}
		tickSeries := metrics.Series{Name: name}
		skewTickSeries := metrics.Series{Name: name + "/skew"}
		skewRecSeries := metrics.Series{Name: name + "/skew"}
		recSeries := make([]metrics.Series, len(opts.RecoveryModes))
		for mi, mode := range opts.RecoveryModes {
			recSeries[mi] = metrics.Series{Name: name + "/" + mode.String()}
		}
		for _, nodes := range opts.Sizes {
			var barrierWait, skewWait float64
			var haveBarrier, haveSkew bool
			effSkew := 1
			for _, coord := range opts.Coordinations {
				if coord == cluster.CoordinationSkew {
					row, err := skewBenchCell(table, src, nodes, opts)
					if err != nil {
						return nil, fmt.Errorf("clusterbench %s/nodes=%d/skew: %w", name, nodes, err)
					}
					res.Rows = append(res.Rows, row)
					skewTickSeries.Add(float64(nodes), row.TickMs)
					skewRecSeries.Add(float64(nodes), row.RecoveryMs)
					skewWait, haveSkew, effSkew = row.WaitMs, true, row.Effective
					continue
				}
				wall := make(map[cluster.RecoveryMode]float64)
				eff := 1
				for mi, mode := range opts.RecoveryModes {
					row, err := clusterBenchCell(table, src, ref, nodes, mode, opts)
					if err != nil {
						return nil, fmt.Errorf("clusterbench %s/nodes=%d/%s: %w", name, nodes, mode, err)
					}
					res.Rows = append(res.Rows, row)
					if mi == 0 {
						tickSeries.Add(float64(nodes), row.TickMs)
						barrierWait, haveBarrier = row.WaitMs, true
					}
					recSeries[mi].Add(float64(nodes), row.RecoveryMs)
					wall[mode] = row.RecoveryMs
					eff = row.Effective
				}
				// The axis's headline claim: with a real (throttled) disk and a
				// peer to restore from, peer-RAM recovery beats the disk pipeline
				// outright. A cell that does not is a regression, not a data point.
				if dw, ok := wall[cluster.RecoveryDisk]; ok && opts.DiskBytesPerSec > 0 && eff > 1 {
					if pw, ok := wall[cluster.RecoveryPeerRAM]; ok && pw >= dw {
						return nil, fmt.Errorf("clusterbench %s/nodes=%d: peer-RAM recovery %.2f ms not below the disk pipeline %.2f ms",
							name, nodes, pw, dw)
					}
				}
			}
			// The coordination axis's headline claim: on the scenarios whose
			// load imbalance makes the barrier expensive, the skew coordinator
			// must be (nearly) never blocked — per-tick wait ≈ 0, checked
			// against a small absolute floor so a quiet barrier cell cannot
			// make the bound vacuous-tight on fast hosts.
			if haveBarrier && haveSkew && effSkew > 1 &&
				(name == "migration" || name == "flashcrowd") {
				limit := 0.5 * barrierWait
				if limit < 2.0 {
					limit = 2.0
				}
				if skewWait > limit {
					return nil, fmt.Errorf("clusterbench %s/nodes=%d: skew coordinator blocked %.3f ms/tick, want ≈0 (barrier blocked %.3f ms/tick)",
						name, nodes, skewWait, barrierWait)
				}
			}
		}
		res.Tick.Add(tickSeries)
		if len(skewTickSeries.Points) > 0 {
			res.Tick.Add(skewTickSeries)
		}
		for _, s := range recSeries {
			res.Recovery.Add(s)
		}
		if len(skewRecSeries.Points) > 0 {
			res.Recovery.Add(skewRecSeries)
		}
	}
	return res, nil
}

// clusterBenchCell measures one (scenario, size, recovery mode) cell end to
// end: tick the scenario through a coordinated cut (and a migration at
// sizes > 1), crash at the final barrier, recover under the cell's mode, and
// verify byte identity against the never-crashed serial reference.
func clusterBenchCell(table gamestate.Table, src workload.Source, ref []byte,
	nodes int, mode cluster.RecoveryMode, opts ClusterBenchOptions) (ClusterBenchRow, error) {
	row := ClusterBenchRow{Scenario: src.Name(), Nodes: nodes, Coordination: "barrier",
		Mode: mode.String(), MigTicks: -1}
	defer enableTelemetry()()
	dir, err := os.MkdirTemp("", "mmocluster")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	copts := cluster.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		Nodes: nodes, DiskBytesPerSec: opts.DiskBytesPerSec,
	}
	var mesh *peerram.Mesh
	if mode == cluster.RecoveryPeerRAM {
		// The mesh is sized to the effective node count (the requested size
		// may fold on small worlds); it outlives the cluster, because the
		// surviving peers' RAM is what Recover restores from.
		mesh = peerram.NewMesh(cluster.Uniform(table.NumObjects(), nodes).NumNodes, peerram.Options{})
		copts.PeerRAM = mesh
	}
	c, err := cluster.New(copts)
	if err != nil {
		return row, err
	}
	row.Effective = len(c.Nodes())

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
	migStart := opts.WarmTicks + 2
	migFinish := total - 2
	var cells []uint32
	var batch []wal.Update
	var tickWall time.Duration
	for t := 0; t < total; t++ {
		if row.Effective > 1 {
			if t == migStart {
				// Move half of node 0's first range to the last node.
				r := c.Routing().Current().NodeRanges(0)[0]
				if _, err := c.StartMigration(r.Lo, r.Lo+(r.Hi-r.Lo)/2, row.Effective-1); err != nil {
					c.Close()
					return row, err
				}
			}
			if t == migFinish {
				rep, err := c.FinishMigration()
				if err != nil {
					c.Close()
					return row, err
				}
				row.MigTicks = rep.TicksLive
				row.MigInstallMs = rep.InstallPause.Seconds() * 1e3
				row.MigBlackout = rep.BlackoutTicks
				if rep.BlackoutTicks != 0 {
					c.Close()
					return row, fmt.Errorf("migration blacked out %d ticks", rep.BlackoutTicks)
				}
			}
		}
		cells, batch = scenarioTick(src, t, cells, batch)
		t0 := time.Now()
		if err := c.Tick(batch); err != nil {
			c.Close()
			return row, err
		}
		tickWall += time.Since(t0)
		if t == opts.WarmTicks-1 {
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
	row.TickMs = tickWall.Seconds() * 1e3 / float64(total)
	row.WaitMs = c.BarrierWait().Seconds() * 1e3 / float64(total)
	for i, sh := range shippers {
		if err := sh.AwaitAck(uint64(total-1), 30*time.Second); err != nil {
			c.Close()
			return row, fmt.Errorf("standby %d behind at the crash: %w", i, err)
		}
		sh.Stop() //nolint:errcheck // stream teardown
	}
	if err := c.Close(); err != nil { // crash at the final tick barrier
		return row, err
	}
	if mesh != nil {
		// The RAM bill, measured at the moment of the crash: compressed
		// image + delta bytes each surviving node holds for its peers.
		stats := mesh.MemStats()
		var sum int64
		for _, b := range stats {
			sum += b
		}
		row.ReplicaKB = float64(sum) / float64(len(stats)) / 1024
	}

	rc, wr, err := cluster.Recover(dir, cluster.Options{
		Mode: engine.ModeCopyOnUpdate, DiskBytesPerSec: opts.DiskBytesPerSec,
		RecoveryMode: mode, PeerRAM: mesh, Standbys: standbys,
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
	// Served-mode honesty: outside the legitimate single-node peerram
	// fallback (no peer exists), the requested rung must be the one that
	// recovered every partition.
	for i, m := range wr.Modes {
		if m != mode && !(mode == cluster.RecoveryPeerRAM && row.Effective == 1) {
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

// benchEmit is the clusterbench cross-partition action source for skew
// cells: a small batch per (node, tick) targeting arbitrary owners, pure by
// construction (a hash of node, tick and index), so every skew cell
// exercises live message logging and skew.Recover can regenerate the
// in-flight messages. Values encode their provenance (tick, node, index).
func benchEmit(table gamestate.Table) skew.EmitFunc {
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

// skewReference runs the skew cell's workload on a single never-crashed
// serial engine: each tick applies the world batch first, then the
// emissions whose delivery lands on the tick (origin tick - window - 1), in
// origin order — the exact delivery order the skew cluster guarantees.
func skewReference(table gamestate.Table, src workload.Source, eff int,
	window uint64, emit skew.EmitFunc) ([]byte, error) {
	e, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		return nil, err
	}
	var cells []uint32
	var batch []wal.Update
	for t := 0; t < src.NumTicks(); t++ {
		cells, batch = scenarioTick(src, t, cells, batch)
		if uint64(t) >= window+1 {
			origin := uint64(t) - window - 1
			for j := 0; j < eff; j++ {
				batch = append(batch, emit(j, origin)...)
			}
		}
		if err := e.ApplyTick(batch); err != nil {
			e.Close()
			return nil, err
		}
	}
	ref := append([]byte(nil), e.Store().Slab()...)
	return ref, e.Close()
}

// skewBenchCell measures one (scenario, size) cell under bounded-skew
// coordination end to end: tick the scenario with live cross-partition
// emissions and a per-node checkpoint round, crash, reconstruct the
// consistent cut with skew.Recover, re-dispatch whatever the crash rolled
// back, and verify byte identity against the emission-aware serial
// reference. TickMs here is end-to-end throughput (dispatch plus drain,
// checkpoint excluded); WaitMs is the coordinator's skew-window wait alone,
// the number the barrier comparison is about.
func skewBenchCell(table gamestate.Table, src workload.Source,
	nodes int, opts ClusterBenchOptions) (ClusterBenchRow, error) {
	row := ClusterBenchRow{Scenario: src.Name(), Nodes: nodes,
		Coordination: cluster.CoordinationSkew,
		Mode:         cluster.RecoveryDisk.String(), Served: cluster.RecoveryDisk.String(),
		MigTicks: -1}
	dir, err := os.MkdirTemp("", "mmoskew")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	window := uint64(opts.MaxSkew)
	eff := cluster.Uniform(table.NumObjects(), nodes).NumNodes
	emit := benchEmit(table)
	ref, err := skewReference(table, src, eff, window, emit)
	if err != nil {
		return row, err
	}
	c, err := skew.New(skew.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		Nodes: nodes, MaxSkew: opts.MaxSkew,
		DiskBytesPerSec: opts.DiskBytesPerSec, Emit: emit,
	})
	if err != nil {
		return row, err
	}
	row.Effective = len(c.Nodes())

	total := opts.WarmTicks + opts.LiveTicks
	var cells []uint32
	var batch []wal.Update
	var ckptWall, ckptWait time.Duration
	t0 := time.Now()
	for t := 0; t < total; t++ {
		cells, batch = scenarioTick(src, t, cells, batch)
		if err := c.Tick(batch); err != nil {
			c.Close()
			return row, err
		}
		if t == opts.WarmTicks-1 {
			// The uncoordinated analogue of the barrier cell's coordinated
			// cut: one checkpoint per node. Its drain is charged to the
			// checkpoint wall, not to the coordinator's window wait.
			w0 := c.WindowWait()
			ck0 := time.Now()
			if err := c.CheckpointNodes(); err != nil {
				c.Close()
				return row, err
			}
			ckptWall = time.Since(ck0)
			ckptWait = c.WindowWait() - w0
			row.CheckpointMs = ckptWall.Seconds() * 1e3
		}
	}
	// The window wait before the final drain: the per-tick cost the
	// coordinator actually paid while the scenario ran.
	wait := c.WindowWait() - ckptWait
	row.WaitMs = wait.Seconds() * 1e3 / float64(total)
	if err := c.Join(); err != nil {
		c.Close()
		return row, err
	}
	row.TickMs = (time.Since(t0) - ckptWall).Seconds() * 1e3 / float64(total)
	if err := c.Crash(); err != nil {
		return row, err
	}

	rc, wr, err := skew.Recover(dir, skew.Options{
		Mode: engine.ModeCopyOnUpdate, DiskBytesPerSec: opts.DiskBytesPerSec, Emit: emit,
	})
	if err != nil {
		return row, err
	}
	row.RecoveryMs = wr.Wall.Seconds() * 1e3
	// Re-dispatch the ticks the crash rolled back (the workload and emit are
	// pure, so the re-run is identical), then drain so every node has applied
	// through the end of the scenario.
	for t := int(wr.WorldTick); t < total; t++ {
		cells, batch = scenarioTick(src, t, cells, batch)
		if err := rc.Tick(batch); err != nil {
			rc.Close()
			return row, err
		}
	}
	if err := rc.Join(); err != nil {
		rc.Close()
		return row, err
	}
	row.WorldTick = rc.NextTick()
	got := make([]byte, table.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		rc.Close()
		return row, err
	}
	row.Identical = wr.WorldTick == wr.Cut+1 && row.WorldTick == uint64(total) &&
		bytes.Equal(got, ref)
	return row, rc.Close()
}
