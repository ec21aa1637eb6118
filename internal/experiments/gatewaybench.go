package experiments

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/report"
	"repro/internal/session"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The gateway benchmark measures the session tier the paper's evaluation
// abstracts away: its update streams arrive from traces, but a deployed
// game puts a connection tier between clients and the tick engine. Per
// (churn profile, cluster size), a session.Driver simulates a client
// population against a session.Gateway fronting a real cluster and
// measures:
//
//   - end-to-end tick wall — churn, intent staging, the canonical batch
//     build, the synchronized cluster tick, and the interest-managed delta
//     fan-out back into every session queue;
//   - intent→visible latency — from the first intent staged to the tick's
//     deltas landing in every interested session's queue (Gateway
//     AwaitDelivered), the latency a player perceives;
//   - sustainable clients/node — the measured population scaled by how much
//     of the tick budget the measured wall leaves unused, per effective
//     node: clients x (budget / wall) / nodes. An extrapolation from the
//     measured point, not a second measurement — it assumes gateway cost
//     scales linearly in population, which holds while the canonical batch
//     build dominates;
//   - session churn absorbed — logins/logouts replayed by the storm
//     profiles (login storm, reconnect storm) while the world keeps ticking;
//   - crash equivalence — the run ends in a crash at the tick barrier and a
//     whole-world recovery; the recovered world must be byte-identical to an
//     independent second gateway+driver instance replaying the same (seed,
//     profile) against an in-memory reference engine, whose per-tick update
//     sets must also match tick for tick (the session-layer determinism
//     property).
//
// A cell that fails identity fails the run: like clusterbench, this
// experiment doubles as the session tier's crash-equivalence acceptance
// check in the CI smoke matrix.

// gatewayScenario maps a churn profile to the workload scenario whose
// update stream it replays: steady runs the paper baseline, the storm
// profiles run the scenarios whose update patterns match their churn story.
func gatewayScenario(p session.Profile) string {
	switch p {
	case session.LoginStorm:
		return "loginstorm"
	case session.ReconnectStorm:
		return "flashcrowd"
	default:
		return "hotspot"
	}
}

// GatewayBenchRow is one (profile, cluster size) measurement.
type GatewayBenchRow struct {
	Profile   session.Profile
	Scenario  string
	Nodes     int
	Effective int
	// Clients is the configured population; Online the mean connected count
	// over the live phase.
	Clients int
	Online  float64
	// TickMs is the mean end-to-end tick wall (stage + barrier tick + delta
	// fan-out); LatMsMean/LatMsMax the intent→visible latency.
	TickMs    float64
	LatMsMean float64
	LatMsMax  float64
	// ClientsPerNode extrapolates the sustainable population per effective
	// node from the tick budget (see the package comment above).
	ClientsPerNode float64
	// Logins/Logouts are total churn events absorbed; DeltasPerTick the mean
	// deltas fanned out per tick; Dropped the deltas lost to slow consumers.
	Logins, Logouts int
	DeltasPerTick   float64
	Dropped         uint64
	// RecoveryMs is the whole-world recovery wall after the end-of-run
	// crash; WorldTick the tick recovered to.
	RecoveryMs float64
	WorldTick  uint64
	// Identical: recovered world ≡ the independent reference instance, and
	// every per-tick update set matched it.
	Identical bool
}

// GatewayBenchResult aggregates the sweep.
type GatewayBenchResult struct {
	Rows     []GatewayBenchRow
	Capacity report.Figure // x = nodes, y = sustainable clients/node
	Latency  report.Figure // x = nodes, y = intent→visible latency ms
}

// Table renders the rows.
func (r *GatewayBenchResult) Table() *report.TextTable {
	t := report.NewTextTable()
	t.Header("profile", "scenario", "nodes", "eff", "clients", "online",
		"tick ms", "lat ms", "lat max", "clients/node", "logins", "logouts",
		"deltas/tick", "dropped", "recovery ms", "identical")
	for _, row := range r.Rows {
		t.Row(string(row.Profile), row.Scenario, fmt.Sprint(row.Nodes),
			fmt.Sprint(row.Effective), fmt.Sprint(row.Clients),
			fmt.Sprintf("%.0f", row.Online),
			fmt.Sprintf("%.3f", row.TickMs),
			fmt.Sprintf("%.3f", row.LatMsMean),
			fmt.Sprintf("%.3f", row.LatMsMax),
			fmt.Sprintf("%.0f", row.ClientsPerNode),
			fmt.Sprint(row.Logins), fmt.Sprint(row.Logouts),
			fmt.Sprintf("%.0f", row.DeltasPerTick),
			fmt.Sprint(row.Dropped),
			fmt.Sprintf("%.2f", row.RecoveryMs),
			fmt.Sprint(row.Identical))
	}
	return t
}

// Identical reports whether every row passed the byte-identity check.
func (r *GatewayBenchResult) Identical() bool {
	for _, row := range r.Rows {
		if !row.Identical {
			return false
		}
	}
	return true
}

// GatewayBenchOptions trims the sweep; zero values mean defaults.
type GatewayBenchOptions struct {
	// Profiles defaults to every session churn profile.
	Profiles []session.Profile
	// Sizes defaults to {1, 2, 4} cluster nodes.
	Sizes []int
	// Clients defaults to 512 at Quick scale, 2048 at Full.
	Clients int
	// WarmTicks/LiveTicks default to 12/12; measurements cover the live
	// phase, the crash cuts at the end of it.
	WarmTicks int
	LiveTicks int
	// UpdatesPerTick defaults to the scale's Table 4 bold default.
	UpdatesPerTick int
	// TickBudget is the real-time tick the capacity extrapolation assumes;
	// defaults to the paper's 50ms (Section 2).
	TickBudget time.Duration
	// Table overrides the scale geometry (tests).
	Table *gamestate.Table
	// DiskBytesPerSec throttles every node's backups: 0 means 10x the
	// scale's paper disk, negative unthrottled.
	DiskBytesPerSec float64
}

func gatewayBenchDefaults(s Scale, opts GatewayBenchOptions) GatewayBenchOptions {
	if len(opts.Profiles) == 0 {
		opts.Profiles = session.Profiles()
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{1, 2, 4}
	}
	if opts.Clients <= 0 {
		opts.Clients = 512
		if s == Full {
			opts.Clients = 2048
		}
	}
	if opts.WarmTicks <= 0 {
		opts.WarmTicks = 12
	}
	if opts.LiveTicks <= 0 {
		opts.LiveTicks = 12
	}
	if opts.UpdatesPerTick <= 0 {
		opts.UpdatesPerTick = DefaultUpdates(s)
	}
	if opts.TickBudget <= 0 {
		opts.TickBudget = 50 * time.Millisecond
	}
	if opts.DiskBytesPerSec == 0 {
		opts.DiskBytesPerSec = 10 * Config(s).Params.DiskBandwidth
	} else if opts.DiskBytesPerSec < 0 {
		opts.DiskBytesPerSec = 0
	}
	return opts
}

// RunGatewayBench sweeps churn profile × cluster size over a gateway
// fronting the real cluster subsystem.
func RunGatewayBench(s Scale, seed int64, opts GatewayBenchOptions) (*GatewayBenchResult, error) {
	opts = gatewayBenchDefaults(s, opts)
	table := Config(s).Table
	if opts.Table != nil {
		table = *opts.Table
	}
	if n := table.NumObjects(); opts.Clients > n {
		opts.Clients = n
	}
	res := &GatewayBenchResult{
		Capacity: report.Figure{
			Title:  fmt.Sprintf("Gateway (%s scale): sustainable clients per node vs cluster size", s),
			XLabel: "# nodes", YLabel: "clients / node @ tick budget",
		},
		Latency: report.Figure{
			Title:  fmt.Sprintf("Gateway (%s scale): intent-to-visible latency vs cluster size", s),
			XLabel: "# nodes", YLabel: "latency [ms]",
		},
	}
	for _, profile := range opts.Profiles {
		capSeries := report.Series{Name: string(profile)}
		latSeries := report.Series{Name: string(profile)}
		for _, nodes := range opts.Sizes {
			row, err := gatewayBenchCell(table, s, seed, profile, nodes, opts)
			if err != nil {
				return nil, fmt.Errorf("gatewaybench %s/nodes=%d: %w", profile, nodes, err)
			}
			res.Rows = append(res.Rows, row)
			capSeries.Add(float64(nodes), row.ClientsPerNode)
			latSeries.Add(float64(nodes), row.LatMsMean)
		}
		res.Capacity.Add(capSeries)
		res.Latency.Add(latSeries)
	}
	return res, nil
}

// gatewaySource builds the profile's workload scenario. Each caller gets an
// independent instance; scenarios are pure functions of (config, tick), so
// two instances replay identical streams.
func gatewaySource(table gamestate.Table, profile session.Profile, seed int64, ticks int, opts GatewayBenchOptions) (workload.Source, error) {
	return workload.New(gatewayScenario(profile), workload.Config{
		Table:          table,
		UpdatesPerTick: opts.UpdatesPerTick,
		Ticks:          ticks,
		Skew:           DefaultSkew,
		Seed:           seed,
	})
}

// gatewayReference replays (profile, seed) through an independent
// gateway+driver over an in-memory serial engine and returns each tick's
// canonical update set plus the final slab — the determinism oracle the
// cluster-driven run is compared against.
func gatewayReference(table gamestate.Table, profile session.Profile, seed int64, ticks int,
	opts GatewayBenchOptions) (perTick [][]wal.Update, slab []byte, err error) {
	src, err := gatewaySource(table, profile, seed, ticks, opts)
	if err != nil {
		return nil, nil, err
	}
	e, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	gw, err := session.NewGateway(session.Options{World: session.EngineWorld{E: e}})
	if err != nil {
		return nil, nil, err
	}
	defer gw.Close()
	drv, err := session.NewDriver(session.DriverConfig{
		Gateway: gw, Clients: opts.Clients, Source: src, Profile: profile, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	for t := 0; t < ticks; t++ {
		rep, err := drv.Tick()
		if err != nil {
			return nil, nil, err
		}
		perTick = append(perTick, append([]wal.Update(nil), rep.Batch...))
	}
	return perTick, append([]byte(nil), e.Store().Slab()...), nil
}

// gatewayBenchCell measures one (profile, size) cell end to end.
func gatewayBenchCell(table gamestate.Table, s Scale, seed int64, profile session.Profile,
	nodes int, opts GatewayBenchOptions) (GatewayBenchRow, error) {
	total := opts.WarmTicks + opts.LiveTicks
	row := GatewayBenchRow{
		Profile: profile, Scenario: gatewayScenario(profile),
		Nodes: nodes, Clients: opts.Clients,
	}
	defer enableTelemetry()()
	refTicks, refSlab, err := gatewayReference(table, profile, seed, total, opts)
	if err != nil {
		return row, err
	}

	dir, err := os.MkdirTemp("", "mmogateway")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	c, err := cluster.New(cluster.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		Nodes: nodes, DiskBytesPerSec: opts.DiskBytesPerSec,
	})
	if err != nil {
		return row, err
	}
	row.Effective = len(c.Nodes())

	src, err := gatewaySource(table, profile, seed, total, opts)
	if err != nil {
		c.Close()
		return row, err
	}
	gw, err := session.NewGateway(session.Options{World: session.ClusterWorld{C: c}})
	if err != nil {
		c.Close()
		return row, err
	}
	drv, err := session.NewDriver(session.DriverConfig{
		Gateway: gw, Clients: opts.Clients, Source: src, Profile: profile, Seed: seed,
	})
	if err != nil {
		gw.Close()
		c.Close()
		return row, err
	}

	batchesMatch := true
	var tickWall, latSum, latMax time.Duration
	var onlineSum, deltaSum float64
	for t := 0; t < total; t++ {
		t0 := time.Now()
		rep, err := drv.Tick()
		if err != nil {
			gw.Close()
			c.Close()
			return row, err
		}
		wall := time.Since(t0)
		if !walUpdatesEqual(rep.Batch, refTicks[t]) {
			batchesMatch = false
		}
		row.Logins += rep.Logins
		row.Logouts += rep.Logouts
		if t >= opts.WarmTicks {
			tickWall += wall
			latSum += rep.Latency
			if rep.Latency > latMax {
				latMax = rep.Latency
			}
			onlineSum += float64(rep.Online)
			deltaSum += float64(rep.Deltas)
		}
		if t == opts.WarmTicks-1 {
			if _, err := c.CheckpointWorld(); err != nil {
				gw.Close()
				c.Close()
				return row, err
			}
		}
	}
	live := float64(opts.LiveTicks)
	row.TickMs = tickWall.Seconds() * 1e3 / live
	row.LatMsMean = latSum.Seconds() * 1e3 / live
	row.LatMsMax = latMax.Seconds() * 1e3
	row.Online = onlineSum / live
	row.DeltasPerTick = deltaSum / live
	row.Dropped = gw.Stats().Dropped
	if row.TickMs > 0 {
		row.ClientsPerNode = row.Online * (opts.TickBudget.Seconds() * 1e3 / row.TickMs) / float64(row.Effective)
	}

	gw.Close()
	if err := c.Close(); err != nil { // crash at the final tick barrier
		return row, err
	}
	rc, wr, err := cluster.Recover(dir, cluster.Options{
		Mode: engine.ModeCopyOnUpdate, DiskBytesPerSec: opts.DiskBytesPerSec,
	})
	if err != nil {
		return row, err
	}
	row.RecoveryMs = wr.Wall.Seconds() * 1e3
	row.WorldTick = wr.WorldTick
	if err := scrapedWallExact("recovery_last_world_wall_ns", wr.Wall); err != nil {
		rc.Close()
		return row, err
	}
	got := make([]byte, table.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		rc.Close()
		return row, err
	}
	row.Identical = batchesMatch && wr.WorldTick == uint64(total) && bytes.Equal(got, refSlab)
	return row, rc.Close()
}

// walUpdatesEqual compares two update sets element for element.
func walUpdatesEqual(a, b []wal.Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
