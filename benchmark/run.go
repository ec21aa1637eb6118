package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// runConfig is one run of one workload in this process.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // the live ticks are paced evenly over this long
	Scale    string
	Trace    bool
	WorkDir  string // state directories are made, and removed, under it
	TraceOut string // where a traced run writes spans.json and layers.json
	// DropTick makes the reference lose one update of that tick (-1: none);
	// DropLast does the same to the last tick the reference is fed.
	DropTick int
	DropLast bool
}

// metric is one reported value. Samples is how many measurements it
// summarises, where that is not one.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Attempted  int               `json:"attempted"` // every tick and recovery, warm and discarded ones too
	Failed     int               `json:"failed"`    // of those: undelivered, dropped or wrong
	Correct    bool              `json:"correct"`   // the oracle agreed everywhere
	Mismatch   string            `json:"mismatch,omitempty"`
	Metrics    map[string]metric `json:"metrics"`          // end to end
	Layers     map[string]metric `json:"layers,omitempty"` // traced runs only
	LiveTicks  int               `json:"live_ticks"`
	Recoveries int               `json:"recoveries"`
}

// failedRatio is the failed_ratio metric: any oracle mismatch makes it 1.
func (r *runResult) failedRatio() float64 {
	if !r.Correct {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// walScrape is the telemetry registry's view of every open log, read through
// the registry's public hooks.
type walScrape struct {
	appendNs, fsyncNs, fsyncs, bytes uint64
}

func scrapeWAL() walScrape {
	a, _ := telemetry.HistogramSnapshot("wal_append_ns")
	f, _ := telemetry.HistogramSnapshot("wal_fsync_ns")
	b, _ := telemetry.CounterValue("wal_append_bytes_total")
	return walScrape{appendNs: a.Sum, fsyncNs: f.Sum, fsyncs: f.Count, bytes: b}
}

// maxTicks bounds the lazily generated scenario; no run gets near it.
const maxTicks = 1 << 24

// runWorkload runs one workload once. It returns an error when the run could
// not be completed; a run that completed with wrong results returns a result
// with Correct false. It is the whole life of a child process: on an error
// return the world it was driving is left to the exiting process.
func runWorkload(cfg runConfig) (*runResult, error) {
	sp, err := workloadNamed(cfg.Scale, cfg.Workload)
	if err != nil {
		return nil, err
	}
	v := &env{sp: sp}
	if cfg.Trace {
		v.rec, v.dev = newRecorder(), &deviceStats{}
		telemetry.Enable()
		defer telemetry.Disable()
	}
	src, err := workload.New("hotspot", workload.Config{
		Table: sp.table, UpdatesPerTick: sp.updates, Ticks: maxTicks, Skew: 0.8, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(sp.table, cfg.DropTick)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	root, err := os.MkdirTemp(cfg.WorkDir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var (
		cells []uint32
		batch []wal.Update
		genNs time.Duration
	)
	// generate makes tick t and splits it for the system's clients; the time
	// it takes is workload.gen_ms and is inside no latency sample.
	generate := func(sys system, t int) []wal.Update {
		t0 := time.Now()
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		canonical := sys.prepare(batch)
		genNs += time.Since(t0)
		return canonical
	}
	res := &runResult{Workload: sp.name, Seed: cfg.Seed, Traced: cfg.Trace, Correct: true}
	// step runs tick t against the system and the reference.
	step := func(sys system, t int, feedOracle bool) (tickTimes, int, error) {
		canonical := generate(sys, t)
		tt, applied, deltas, bad, err := sys.tick(t)
		if err != nil {
			return tt, 0, fmt.Errorf("tick %d: %w", t, err)
		}
		res.Attempted++
		res.Failed += bad
		if feedOracle {
			if applied != nil {
				orc.checkBatch(t, applied, canonical)
			}
			if err := orc.apply(t, canonical); err != nil {
				return tt, 0, err
			}
		}
		return tt, deltas, nil
	}

	// Set-up, several times over: only the calls into the program are timed,
	// so setup_s moves when the program's set-up does and not with the
	// generator or the reference.
	var (
		sys      system
		dir      string
		setupSec []float64
	)
	for i := 0; i < sp.setups; i++ {
		if sys != nil {
			// The directory stays until the run ends: deleting it now would
			// have the file system trim its blocks during the live phase.
			if err := sys.stop(); err != nil {
				return nil, fmt.Errorf("set-up %d: stop: %w", i-1, err)
			}
		}
		dir = filepath.Join(root, fmt.Sprintf("world-%d", i))
		var spent time.Duration
		t0 := time.Now()
		if sys, err = sp.build(v, dir); err != nil {
			return nil, fmt.Errorf("set-up %d: build: %w", i, err)
		}
		spent += time.Since(t0)
		for t := 0; t < sp.warm; t++ {
			tt, _, err := step(sys, t, i == 0)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: warm %w", i, err)
			}
			spent += tt.delivered.Sub(tt.start)
		}
		t0 = time.Now()
		if err := sys.checkpoint(false); err != nil {
			return nil, fmt.Errorf("set-up %d: checkpoint: %w", i, err)
		}
		spent += time.Since(t0)
		setupSec = append(setupSec, spent.Seconds())
	}

	// Live phase.
	var (
		latMs     []float64
		work      []int
		deltas    int
		routeNs   time.Duration
		partition = cluster.Uniform(sp.table.NumObjects(), max(sp.nodes, 1))
		perNode   = make([][]wal.Update, partition.NumNodes)
	)
	genNs = 0
	c0, w0, wire0, d0 := sys.counters(), scrapeWAL(), sys.wireBytes(), v.dev.totals()
	// The loop is closed and paced: a tick starts when the one before it has
	// been delivered, and no sooner than one period after that one started.
	// The period is that of a full-scale run, whatever the scale.
	period := time.Duration(cfg.Seconds / liveTicks * float64(time.Second))
	next := sp.warm
	v.rec.pause(false)
	for end := next + sp.live; next < end; next++ {
		due := time.Now().Add(period)
		tt, n, err := step(sys, next, true)
		if err != nil {
			return nil, err
		}
		v.rec.add(treeTick, next, "tick", "", tt.start, tt.delivered)
		latMs = append(latMs, ms(tt.delivered.Sub(tt.start)))
		work = append(work, len(batch))
		deltas += n
		if v.rec != nil && sp.nodes > 0 {
			// The cluster routes inside Tick; the same exported router, timed
			// on the same batch between ticks, is what that step costs.
			t0 := time.Now()
			perNode = cluster.RouteTick(partition, uint32(sp.table.CellsPerObject()), batch, perNode)
			routeNs += time.Since(t0)
		}
		time.Sleep(time.Until(due))
	}
	v.rec.pause(true)
	live := len(latMs)
	liveGen := genNs
	c1, w1, wire1 := sys.counters(), scrapeWAL(), sys.wireBytes()

	// Pin what the recoveries replay, then crash.
	if sp.tail > 0 {
		if err := sys.checkpoint(true); err != nil {
			return nil, fmt.Errorf("covering checkpoint: %w", err)
		}
		for end := next + sp.tail; next < end; next++ {
			if _, _, err := step(sys, next, true); err != nil {
				return nil, err
			}
		}
	}
	walBytes, err := dirBytes(dir, "wal")
	if err != nil {
		return nil, err
	}
	// Peak RSS is read now, with the last tick served. A recovery allocates a
	// world's worth of memory within 200 ms, and where in that the collector
	// happens to run moves the peak by a sixth from run to run; the whole
	// run's peak is the per-layer recovery.peak_rss_mb.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	image, err := sys.crash()
	if err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}

	// Every recovery serves the same first tick; the reference serves it once.
	cells, batch = workload.TickUpdates(src, next, cells, batch)
	first := append([]wal.Update(nil), batch...)
	if cfg.DropLast {
		orc.dropTick = next
	}
	if err := orc.apply(next, first); err != nil {
		return nil, err
	}
	var (
		recMs  []float64
		stages []recovered
	)
	rdir := filepath.Join(root, "recover")
	v.rec.pause(false)
	for r := 0; r < sp.discard+sp.recoveries; r++ {
		if err := refreshDir(image, rdir); err != nil {
			return nil, err
		}
		got, err := sp.recover(v, rdir, first, func(state []byte) {
			orc.checkState(fmt.Sprintf("recovery %d", r), state)
		})
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", r, err)
		}
		// Return each recovered world's memory before the next is built, so
		// that peak RSS is one world's and not an accident of GC timing.
		debug.FreeOSMemory()
		res.Attempted++
		if r < sp.discard {
			continue
		}
		id := r - sp.discard
		recMs = append(recMs, ms(got.served.Sub(got.call)))
		stages = append(stages, got)
		v.rec.add(treeRecover, id, "recover", "", got.call, got.served)
		v.rec.add(treeRecover, id, "recovery.open", "recover", got.call, got.opened)
		// ParallelResult gives the stages' lengths, not their places: the
		// pipeline is the last thing RecoverFrom does, restore starts with
		// it and replay ends with it.
		pipeStart := got.opened.Add(-got.stages.TotalDuration)
		v.rec.add(treeRecover, id, "recovery.restore", "recovery.open", pipeStart, pipeStart.Add(got.stages.RestoreDuration))
		v.rec.add(treeRecover, id, "recovery.replay", "recovery.open", got.opened.Add(-got.stages.ReplayDuration), got.opened)
		v.rec.add(treeRecover, id, "recovery.first_tick", "recover", got.opened, got.served)
	}

	// Results.
	res.LiveTicks, res.Recoveries = live, len(recMs)
	res.Failed += int(c1.gateway.Dropped - c0.gateway.Dropped)
	if orc.mismatch != "" {
		res.Correct, res.Mismatch = false, orc.mismatch
	}
	sorted := sortedCopy(latMs)
	p50, err := percentile(sorted, 50)
	if err != nil {
		return nil, err
	}
	res.Metrics = map[string]metric{
		"setup_s":       {Value: median(setupSec), Unit: "s", Samples: len(setupSec)},
		"tick_p50_ms":   {Value: p50, Unit: "ms", Samples: live},
		"updates_per_s": {Value: medianRate(latMs, work), Unit: "1/s", Samples: live},
		"recover_ms":    {Value: median(recMs), Unit: "ms", Samples: len(recMs)},
		"failed_ratio":  {Value: res.failedRatio(), Unit: "ratio", Samples: res.Attempted},
	}
	// A run too short for a p99 (the smoke scale) reports none.
	if p99, err := percentile(sorted, 99); err == nil {
		res.Metrics["tick_p99_ms"] = metric{Value: p99, Unit: "ms", Samples: live}
	}
	res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}

	if cfg.Trace {
		if err := checkTrees(v.rec.spans); err != nil {
			return nil, fmt.Errorf("span trees: %w", err)
		}
		rssEnd, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Layers = layerMetrics(layerInputs{
			rssEnd: rssEnd,
			sp:     sp, live: live, gen: liveGen, route: routeNs, deltas: deltas,
			c0: c0, c1: c1, w0: w0, w1: w1, wire: wire1 - wire0, walBytes: walBytes,
			d0: d0, d1: v.dev.totals(), self: selfTimes(v.rec.spans), latMs: latMs, stages: stages,
		})
		if cfg.TraceOut != "" {
			if err := writeTrace(filepath.Join(cfg.TraceOut, sp.name), v.rec.spans, res.Layers); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	sp       spec
	live     int           // live ticks
	gen      time.Duration // generator time over the live ticks
	route    time.Duration // RouteTick time over the live ticks
	deltas   int
	c0, c1   counters  // public stats, before and after the live phase
	w0, w1   walScrape // telemetry registry, before and after
	wire     int64
	walBytes int64
	d0, d1   deviceTotals // device wrapper, live start and end of run
	self     map[string]time.Duration
	latMs    []float64
	stages   []recovered
	rssEnd   float64 // VmHWM when the last recovery is done
}

// layerMetrics computes the per-layer table. Times are means per live tick,
// so that the layers of one workload add up to its mean tick; recovery
// stages are medians over the sampled recoveries, like recover_ms. A layer a
// workload does not run reports 0. telemetry.overhead_ratio needs the
// untraced run too and is added by the parent.
func layerMetrics(in layerInputs) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, samples int) {
		out[name] = metric{Value: v, Unit: unitOf(perLayer, name), Samples: samples}
	}
	ticks := float64(in.live)
	perTick := func(d time.Duration) float64 { return ms(d) / ticks }
	engines := float64(in.c1.engines)
	updates := float64(in.c1.updates - in.c0.updates)

	set("workload.gen_ms", perTick(in.gen), in.live)
	// The latency peak, from the traced run's own ticks; a run too short for
	// a p99 (the smoke scale) has none. The slowest tick is where work that
	// happens a few times per run shows, such as a checkpoint completing.
	sorted := sortedCopy(in.latMs)
	if p99, err := percentile(sorted, 99); err == nil {
		set("tick_p99_ms", p99, in.live)
	}
	set("tick_max_ms", sorted[len(sorted)-1], in.live)

	// session: self times of the benchmark's spans.
	set("session.submit_ms", perTick(in.self["session.submit"]), in.live)
	set("session.batch_ms", perTick(in.self["session.step"]), in.live)
	set("session.fanout_ms", perTick(in.self["session.fanout"]), in.live)
	set("session.deltas_per_tick", float64(in.deltas)/ticks, in.live)
	set("session.dropped_deltas", float64(in.c1.gateway.Dropped-in.c0.gateway.Dropped), 0)
	set("session.wire_bytes_per_tick", float64(in.wire)/ticks, in.live)

	// wal: the registry sums over every open log, so divide by the engines
	// to get what one node's tick waits for (the nodes run side by side).
	appendMs := ms(time.Duration(in.w1.appendNs-in.w0.appendNs)) / ticks / engines
	fsyncMs := ms(time.Duration(in.w1.fsyncNs-in.w0.fsyncNs)) / ticks / engines
	set("wal.append_ms", appendMs, in.live)
	set("wal.fsync_ms", fsyncMs, in.live)
	set("wal.fsyncs_per_tick", float64(in.w1.fsyncs-in.w0.fsyncs)/ticks, in.live)
	set("wal.bytes_per_update", float64(in.w1.bytes-in.w0.bytes)/updates, 0)
	set("wal.dir_bytes_end", float64(in.walBytes), 0)

	// engine: public stats, per-engine means.
	applyMs := perTick(in.c1.apply-in.c0.apply) / engines
	pauseMs := perTick(in.c1.pause-in.c0.pause) / engines
	set("engine.apply_ms", applyMs, in.live)
	set("engine.apply_ns_per_update", float64(in.c1.apply-in.c0.apply)/updates, 0)
	set("engine.pause_ms_total", ms(in.c1.pause-in.c0.pause)/engines, 0)
	var ckpts int
	var ckptDur, pauseMax time.Duration
	for e, list := range in.c1.checkpoints {
		for _, info := range list[len(in.c0.checkpoints[e]):] {
			ckpts++
			ckptDur += info.Duration
			pauseMax = max(pauseMax, info.Pause)
		}
	}
	set("engine.pause_ms_max", ms(pauseMax), ckpts)
	set("engine.cou_copies_per_update", float64(in.c1.copies-in.c0.copies)/updates, 0)
	set("engine.ckpt_bytes_per_update", float64(in.c1.ckptBytes-in.c0.ckptBytes)/updates, 0)
	set("engine.checkpoints", float64(ckpts), 0)
	set("engine.checkpoint_ms", ms(ckptDur)/float64(max(ckpts, 1)), ckpts)

	// engine.tick_ms and the cluster. Behind a cluster the engine's tick
	// cannot be wrapped, so it is the sum of its measured parts; what
	// cluster.Tick takes beyond that is the cluster's own overhead.
	worldMs := perTick(in.self["world.tick"])
	if in.sp.nodes > 0 {
		engineMs := appendMs + fsyncMs + applyMs + pauseMs
		set("engine.tick_ms", engineMs, in.live)
		set("cluster.tick_ms", worldMs, in.live)
		set("cluster.barrier_wait_ms", perTick(in.c1.barrierWait-in.c0.barrierWait), in.live)
		set("cluster.route_ms", perTick(in.route), in.live)
		set("cluster.overhead_ms", worldMs-engineMs, in.live)
	} else {
		set("engine.tick_ms", worldMs, in.live)
		for _, name := range []string{"cluster.tick_ms", "cluster.barrier_wait_ms", "cluster.route_ms", "cluster.overhead_ms"} {
			set(name, 0, 0)
		}
	}

	// disk: the device wrapper, from the first live tick to the end of the run.
	set("disk.write_calls", float64(in.d1.writeCalls-in.d0.writeCalls), 0)
	set("disk.write_bytes", float64(in.d1.writeBytes-in.d0.writeBytes), 0)
	set("disk.write_ms", ms(time.Duration(in.d1.writeNs-in.d0.writeNs)), 0)
	set("disk.syncs", float64(in.d1.syncs-in.d0.syncs), 0)
	set("disk.sync_ms", ms(time.Duration(in.d1.syncNs-in.d0.syncNs)), 0)
	set("disk.read_bytes", float64(in.d1.readBytes-in.d0.readBytes), 0)
	set("disk.read_ms", ms(time.Duration(in.d1.readNs-in.d0.readNs)), 0)

	// recovery: medians over the sampled recoveries.
	n := len(in.stages)
	med := func(f func(recovered) float64) float64 {
		vals := make([]float64, n)
		for i, r := range in.stages {
			vals[i] = f(r)
		}
		return median(vals)
	}
	set("recovery.open_ms", med(func(r recovered) float64 { return ms(r.opened.Sub(r.call) - r.stages.TotalDuration) }), n)
	set("recovery.restore_ms", med(func(r recovered) float64 { return ms(r.stages.RestoreDuration) }), n)
	set("recovery.replay_ms", med(func(r recovered) float64 { return ms(r.stages.ReplayDuration) }), n)
	set("recovery.pipeline_ms", med(func(r recovered) float64 { return ms(r.stages.TotalDuration) }), n)
	set("recovery.overlap_ms", med(func(r recovered) float64 { return ms(r.stages.Overlap()) }), n)
	set("recovery.replayed_updates", med(func(r recovered) float64 { return float64(r.stages.ReplayedUpdates) }), n)
	set("recovery.replay_updates_per_s", med(func(r recovered) float64 {
		if r.stages.ReplayDuration <= 0 {
			return 0
		}
		return float64(r.stages.ReplayedUpdates) / r.stages.ReplayDuration.Seconds()
	}), n)
	set("recovery.first_tick_ms", med(func(r recovered) float64 { return ms(r.served.Sub(r.opened)) }), n)
	set("recovery.world_ms", med(func(r recovered) float64 { return ms(r.worldWall) }), n)
	set("recovery.peak_rss_mb", in.rssEnd, 0)

	return out
}

// peakRSSMB reads this process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// procs is the loop discipline's GOMAXPROCS: one load-generating process on
// at most two OS threads' worth of parallelism.
func procs() int { return min(runtime.NumCPU(), 2) }

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
