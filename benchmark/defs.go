package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// spec is one workload: sizes, how long each phase runs, and how its world
// is built and recovered. Every run is
//
//	set-up ×setups (build world → warm ticks → covering checkpoint)
//	→ live ticks (timed) → [covering checkpoint → pinned tail] → crash
//	→ recoveries, each on a fresh copy of the crash image (timed) → verify
type spec struct {
	name string
	why  string // one line for BENCHMARK.json

	table   gamestate.Table
	updates int // per tick, hotspot scenario at skew 0.8
	clients int // sessions or TCP clients; 0 without a gateway
	nodes   int // cluster nodes; 0 without a cluster
	shards  int // engine shards (engine workloads)

	diskBytesPerSec        float64     // backup-device throttle while ticking
	recoverDiskBytesPerSec float64     // and while recovering
	recoverMode            engine.Mode // the mode the crashed engine ran in

	setups int // set-ups per run; setup_s is their median
	warm   int // ticks before the covering checkpoint, never sampled

	// live is the number of timed ticks. It is a count and not a time because
	// every tick is bytes that the log's next rotation has to sync (files.go).
	live int

	// tail, when positive, pins what a recovery replays: a covering
	// checkpoint after the live phase, then exactly tail more ticks.
	tail int

	// The first discard recoveries are not sampled; the recoveries after
	// them are.
	discard    int
	recoveries int

	build   func(v *env, dir string) (system, error)
	recover func(v *env, dir string, first []wal.Update, check func([]byte)) (recovered, error)
}

// The two table sizes of the repository's experiments.
var (
	quickTable = gamestate.Table{Rows: 100_000, Cols: 10, CellSize: 4, ObjSize: 512} // 7,813 objects, 4 MB
	fullTable  = gamestate.Default()                                                 // 78,125 objects, 40 MB
)

// Emulated backup-disk bandwidths. Recoveries read at the paper's 60 MB/s.
// While the world ticks, the checkpointers write back to back at whatever the
// throttle allows for as long as the live phase lasts, and every byte ends up
// on the virtual disk the checkout lives on: at 60 MB/s per engine that is
// most of a gigabyte per run. The tick throttles keep a checkpoint cycle at
// 0.2 to 2 s, so that the live phase covers five or more of them:
// copy-on-update makes a tick dearest right after a checkpoint starts and
// cheaper from there on, and a median over one or two such cycles moves with
// where in a cycle the phase happens to end.
const (
	paperDisk = 60e6
	quickDisk = 10e6 // 4 MB table: a full image in 0.4 s
	fullDisk  = 20e6 // 40 MB table: a full image in 2 s
)

// liveTicks is the number of live ticks a full-scale run samples on every
// workload, paced evenly over the run's --seconds (run.go). Ten runs of one
// commit spread two to three times as much on the median of 1,100 ticks as on
// the median of 3,300, and the log grows by 38 to 120 KB with every tick.
const liveTicks = 3300

// scaleFactor is the common factor between liveTicks and the 5,000 live ticks
// ISSUE 13 asked of the two session workloads.
const scaleFactor = float64(liveTicks) / 5000

// workloads returns the four workloads at a scale: "full" is what
// BENCHMARK.json runs, "smoke" is the seconds-long version the tests run.
//
// No workload syncs its log on every tick (engine.Options.SyncEveryTick is
// false: the log is synced when a checkpoint completes and rotates it). The
// first version did, on three of the four, and the check that accepts this
// benchmark refused it: an fsync was 45 % of those ticks, and on the shared
// virtual disks checkouts live on its cost wanders by a third for minutes at a
// time, so ten runs of one commit spread 9 to 60 % on tick_p50_ms. What is
// timed now is the program's own work per tick; what it asks of the disk is
// counted (wal.fsyncs_per_tick, wal.bytes_per_update, disk.*).
func workloads(scale string) ([]spec, error) {
	specs := []spec{
		{
			name:  "durable-cluster",
			why:   "512 sessions -> gateway -> 2-node cluster: fan-out, routing and the barrier dominate; apply is a tenth, so an apply change must not move it; 3,300 live ticks (x0.66 of ISSUE 13), no fsync per tick",
			table: quickTable, updates: 6400, clients: 512, nodes: 2, shards: 1,
			diskBytesPerSec: quickDisk, recoverDiskBytesPerSec: paperDisk,
			recoverMode: engine.ModeCopyOnUpdate, setups: 3, warm: 100, live: liveTicks,
			tail: 20, discard: 1, recoveries: 3,
			build: buildDurableCluster, recover: recoverCluster,
		},
		{
			name:  "bulk-apply",
			why:   "direct 2-shard ApplyTickParallel, 40 MB table, 16,000 updates/tick: engine-bound, pre-image copies and the apply pool on the path, no session or cluster; a fan-out or codec change must not move it",
			table: fullTable, updates: 16000, shards: 2,
			diskBytesPerSec: fullDisk, recoverDiskBytesPerSec: paperDisk,
			recoverMode: engine.ModeCopyOnUpdate, setups: 1, warm: 10, live: liveTicks,
			tail: 10, discard: 1, recoveries: 2,
			build: buildBulkApply, recover: recoverEngine,
		},
		{
			name:  "tcp-engine",
			why:   "2 loopback TCP clients -> ServeConn -> gateway -> one engine: the only user of the MMOGATE1 codec and conn goroutines; a cluster change must not move it; no fsync per tick",
			table: quickTable, updates: 6400, clients: 2, shards: 1,
			diskBytesPerSec: quickDisk, recoverDiskBytesPerSec: paperDisk,
			recoverMode: engine.ModeCopyOnUpdate, setups: 3, warm: 100, live: liveTicks,
			tail: 20, discard: 1, recoveries: 3,
			build: buildTCPEngine, recover: recoverEngine,
		},
		{
			name:  "crash-recover",
			why:   "kill-style crash image, 40 MB table, pinned log tail, unthrottled restore || replay on fresh copies: reads wal and disk where the others write; a tick-path change must not move recover_ms",
			table: fullTable, updates: 6400, shards: 2,
			diskBytesPerSec: fullDisk, recoverDiskBytesPerSec: 0,
			recoverMode: engine.ModeNone, setups: 1, warm: 10, live: liveTicks,
			tail: 640, discard: 3, recoveries: 21,
			build: buildCrashRecover, recover: recoverEngine,
		},
	}
	switch scale {
	case "full":
	case "smoke":
		small := gamestate.Table{Rows: 200_000, Cols: 10, CellSize: 4, ObjSize: 512} // 8 MB
		for i := range specs {
			sp := &specs[i]
			if sp.table == fullTable {
				sp.table = small
			}
			sp.updates, sp.diskBytesPerSec = min(sp.updates, 6400), paperDisk
			sp.setups, sp.warm, sp.live = 1, 10, 30
			sp.tail = min(sp.tail, 5)
			sp.discard, sp.recoveries = 0, 3
		}
	default:
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	return specs, nil
}

func workloadNamed(scale, name string) (spec, error) {
	specs, err := workloads(scale)
	if err != nil {
		return spec{}, err
	}
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// exact marks a count that repeats exactly with one seed at a fixed
	// number of ticks; timing marks one that depends on when a background
	// checkpoint happens to finish. Neither is part of BENCHMARK.json.
	exact, timing bool
}

// endToEnd is the contract: every workload reports every one of these, and
// a later change may worsen none of them by more than its bound.
// failed_ratio is reported too, but as the attempted/failed/correct fields of
// the result and not as a bounded metric: it is 0 on every good run and a
// share of 0 bounds nothing.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tick_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// p99Bound is what -compare holds tick_p99_ms to. The latency peak is printed
// by every run, but it is not in the bounded list above: on the virtual disks
// this was sized on, ten runs of one commit spread 15-38 % on it, more than
// the largest bound (25 %) a benchmark may set.
const p99Bound = 0.25

// perLayer lists the traced run's metrics, layer = module name.
var perLayer = []metricDef{
	{Name: "tick_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tick_max_ms", Unit: "ms", Better: "lower"},

	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},

	{Name: "session.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "session.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "session.fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "session.deltas_per_tick", Unit: "count", Better: "lower", exact: true},
	{Name: "session.dropped_deltas", Unit: "count", Better: "lower"},
	{Name: "session.wire_bytes_per_tick", Unit: "B", Better: "lower", exact: true},

	{Name: "cluster.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.barrier_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.route_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.overhead_ms", Unit: "ms", Better: "lower"},

	{Name: "engine.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.apply_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "engine.pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "engine.pause_ms_max", Unit: "ms", Better: "lower"},
	{Name: "engine.cou_copies_per_update", Unit: "ratio", Better: "lower", timing: true},
	{Name: "engine.ckpt_bytes_per_update", Unit: "B", Better: "lower", timing: true},
	{Name: "engine.checkpoints", Unit: "count", Better: "higher", timing: true},
	{Name: "engine.checkpoint_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsyncs_per_tick", Unit: "count", Better: "lower", exact: true},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower", exact: true},
	{Name: "wal.dir_bytes_end", Unit: "B", Better: "lower"},

	{Name: "disk.write_calls", Unit: "count", Better: "lower", timing: true},
	{Name: "disk.write_bytes", Unit: "B", Better: "lower", timing: true},
	{Name: "disk.write_ms", Unit: "ms", Better: "lower"},
	{Name: "disk.syncs", Unit: "count", Better: "lower", timing: true},
	{Name: "disk.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "disk.read_bytes", Unit: "B", Better: "lower"},
	{Name: "disk.read_ms", Unit: "ms", Better: "lower"},

	{Name: "recovery.open_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.overlap_ms", Unit: "ms", Better: "higher"},
	{Name: "recovery.replayed_updates", Unit: "count", Better: "lower", exact: true},
	{Name: "recovery.replay_updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recovery.first_tick_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.world_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// repeats says how a per-layer count repeats between runs of one seed, for
// the printed table: BENCHMARK.json has no field for it.
func repeats(name string) string {
	for _, d := range perLayer {
		switch {
		case d.Name != name:
		case d.exact:
			return " exact"
		case d.timing:
			return " timing-dependent"
		}
	}
	return ""
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
