package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/wal"
)

// ValidationRun is one (method, updates-per-tick) point of Figure 6: the
// simulation model's prediction next to the real implementation's
// measurement.
type ValidationRun struct {
	Method  checkpoint.Method
	Updates int

	SimOverhead    float64 // avg per-tick overhead predicted [sec]
	ImplOverhead   float64 // avg per-tick overhead measured [sec]
	SimCheckpoint  float64
	ImplCheckpoint float64
	SimRecovery    float64
	ImplRecovery   float64 // measured restore + paper-formula replay

	ImplRestoreMeasured time.Duration // wall time of the real restore
	ImplReplayMeasured  time.Duration // wall time of the real log replay
	ImplCopies          int64         // pre-image copies performed (COU)
	Ticks               int
}

// ValidationResult aggregates Figure 6.
type ValidationResult struct {
	Runs       []ValidationRun
	Overhead   report.Figure
	Checkpoint report.Figure
	Recovery   report.Figure
}

// ValidationOptions tunes the Figure 6 harness.
type ValidationOptions struct {
	// Points are the updates-per-tick values to measure. Nil uses a
	// three-point subset of the scale's sweep.
	Points []int
	// Ticks per run. 0 uses 120 (quick) / 300 (full).
	Ticks int
	// Compress divides the tick length and multiplies the disk rate by the
	// same factor, shrinking wall-clock time while preserving the
	// flush-spans-N-ticks ratio. 0 uses 5 (quick) / 1 (full). The simulator
	// runs under the same compressed parameters, so the comparison stays
	// apples-to-apples.
	Compress float64
	Seed     int64
	// Shards runs the real engine sharded (parallel checkpoint flushers).
	// 0 keeps the paper-faithful single-writer engine the simulator models;
	// >1 measures how far the sharded engine departs from that prediction.
	Shards int
}

func (o ValidationOptions) withDefaults(s Scale) ValidationOptions {
	if o.Points == nil {
		sweep := UpdateSweep(s)
		o.Points = []int{sweep[0], sweep[4], sweep[8]}
	}
	if o.Ticks == 0 {
		if s == Full {
			o.Ticks = 300
		} else {
			o.Ticks = 120
		}
	}
	if o.Compress == 0 {
		if s == Full {
			o.Compress = 1
		} else {
			o.Compress = 5
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunValidation reproduces Figure 6: Naive-Snapshot and Copy-on-Update in
// the simulator and in the real engine, over an updates-per-tick sweep.
func RunValidation(s Scale, opts ValidationOptions) (*ValidationResult, error) {
	opts = opts.withDefaults(s)
	cfg := Config(s)
	// Compressed time base for both simulator and implementation.
	cfg.Params.TickFreq *= opts.Compress
	cfg.Params.DiskBandwidth *= opts.Compress

	methods := []checkpoint.Method{checkpoint.NaiveSnapshot, checkpoint.CopyOnUpdate}
	modes := map[checkpoint.Method]engine.Mode{
		checkpoint.NaiveSnapshot: engine.ModeNaiveSnapshot,
		checkpoint.CopyOnUpdate:  engine.ModeCopyOnUpdate,
	}

	res := &ValidationResult{
		Overhead: report.Figure{
			Title:  fmt.Sprintf("Figure 6(a) (%s scale): validation, overhead", s),
			XLabel: "# updates per tick", YLabel: "avg overhead per tick [sec]",
		},
		Checkpoint: report.Figure{
			Title:  fmt.Sprintf("Figure 6(b) (%s scale): validation, checkpoint time", s),
			XLabel: "# updates per tick", YLabel: "avg time to checkpoint [sec]",
		},
		Recovery: report.Figure{
			Title:  fmt.Sprintf("Figure 6(c) (%s scale): validation, recovery time", s),
			XLabel: "# updates per tick", YLabel: "est. recovery time [sec]",
		},
	}

	series := map[string]*report.Series{}
	for _, m := range methods {
		for _, kind := range []string{"Simulation", "Implementation"} {
			for _, fig := range []string{"o", "c", "r"} {
				key := fmt.Sprintf("%s/%s/%s", m.ShortName(), kind, fig)
				series[key] = &report.Series{Name: m.ShortName() + " (" + kind + ")"}
			}
		}
	}

	for _, updates := range opts.Points {
		// Baseline: apply cost without any checkpointer.
		baseline, err := runEngine(cfg, engine.ModeNone, updates, opts)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			run := ValidationRun{Method: m, Updates: updates, Ticks: opts.Ticks}

			// Simulation prediction under the same (compressed) parameters.
			src, err := zipfSource(cfg, updates, opts.Ticks, DefaultSkew, opts.Seed)
			if err != nil {
				return nil, err
			}
			simRes, err := checkpoint.Run(m, cfg, src)
			if err != nil {
				return nil, err
			}
			run.SimOverhead = simRes.AvgOverhead
			run.SimCheckpoint = simRes.AvgCheckpointTime
			run.SimRecovery = simRes.RecoveryTime

			// Real implementation measurement.
			impl, err := runEngine(cfg, modes[m], updates, opts)
			if err != nil {
				return nil, err
			}
			run.ImplOverhead = impl.avgOverhead(baseline.avgApply())
			run.ImplCheckpoint = impl.avgCheckpoint()
			run.ImplRestoreMeasured = impl.restoreDur
			run.ImplReplayMeasured = impl.replayDur
			// Paper-comparable recovery: measured restore plus the paper's
			// ΔTreplay (≈ time to checkpoint; our engine replays a logical
			// update log instead of re-simulating, which is cheaper, so the
			// formula keeps the comparison honest).
			run.ImplRecovery = impl.restoreDur.Seconds() + run.ImplCheckpoint
			run.ImplCopies = impl.copies

			x := float64(updates)
			series[m.ShortName()+"/Simulation/o"].Add(x, run.SimOverhead)
			series[m.ShortName()+"/Implementation/o"].Add(x, run.ImplOverhead)
			series[m.ShortName()+"/Simulation/c"].Add(x, run.SimCheckpoint)
			series[m.ShortName()+"/Implementation/c"].Add(x, run.ImplCheckpoint)
			series[m.ShortName()+"/Simulation/r"].Add(x, run.SimRecovery)
			series[m.ShortName()+"/Implementation/r"].Add(x, run.ImplRecovery)
			res.Runs = append(res.Runs, run)
		}
	}
	for _, m := range methods {
		for _, kind := range []string{"Simulation", "Implementation"} {
			res.Overhead.Add(*series[m.ShortName()+"/"+kind+"/o"])
			res.Checkpoint.Add(*series[m.ShortName()+"/"+kind+"/c"])
			res.Recovery.Add(*series[m.ShortName()+"/"+kind+"/r"])
		}
	}
	return res, nil
}

// engineRun holds one engine measurement.
type engineRun struct {
	timings    []engine.TickTiming
	ckpts      []engine.CheckpointInfo
	copies     int64
	restoreDur time.Duration
	replayDur  time.Duration
}

func (r *engineRun) avgApply() time.Duration {
	if len(r.timings) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range r.timings {
		sum += t.Apply
	}
	return sum / time.Duration(len(r.timings))
}

// avgOverhead subtracts the baseline apply cost from (apply+pause).
func (r *engineRun) avgOverhead(baselineApply time.Duration) float64 {
	if len(r.timings) == 0 {
		return 0
	}
	var sum float64
	for _, t := range r.timings {
		o := (t.Apply - baselineApply + t.Pause).Seconds()
		if o > 0 {
			sum += o
		}
	}
	return sum / float64(len(r.timings))
}

func (r *engineRun) avgCheckpoint() float64 {
	if len(r.ckpts) == 0 {
		return 0
	}
	var sum time.Duration
	for _, c := range r.ckpts {
		sum += c.Duration
	}
	return (sum / time.Duration(len(r.ckpts))).Seconds()
}

// runEngine drives the real engine for one validation point: a 1/Ftick-paced
// mutator loop applying the synthetic trace, then a measured recovery.
func runEngine(cfg checkpoint.Config, mode engine.Mode, updates int, opts ValidationOptions) (*engineRun, error) {
	dir, err := os.MkdirTemp("", "mmoval")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	src, err := zipfSource(cfg, updates, opts.Ticks, DefaultSkew, opts.Seed)
	if err != nil {
		return nil, err
	}
	shards := opts.Shards
	if shards == 0 {
		shards = 1 // paper-faithful default: one mutator, one writer
	}
	eopts := engine.Options{
		Table:           cfg.Table,
		Dir:             dir,
		Mode:            mode,
		DiskBytesPerSec: cfg.Params.DiskBandwidth,
		KeepTickStats:   true,
		Shards:          shards,
	}
	runtime.GC()
	e, err := engine.Open(eopts)
	if err != nil {
		return nil, err
	}

	tickLen := time.Duration(float64(time.Second) / cfg.Params.TickFreq)
	var cells []uint32
	batch := make([]wal.Update, 0, updates)
	next := time.Now()
	for t := 0; t < opts.Ticks; t++ {
		cells = src.AppendTick(t, cells[:0])
		batch = batch[:0]
		for _, c := range cells {
			batch = append(batch, wal.Update{Cell: c, Value: uint32(t)})
		}
		if err := e.ApplyTick(batch); err != nil {
			e.Close()
			return nil, err
		}
		// Sleep out the remainder of the tick (the paper's query+sleep
		// phases): the mutator ticks at Ftick regardless of work done.
		next = next.Add(tickLen)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	run := &engineRun{copies: e.CheckpointStats().Copies.Load()}
	if err := e.Close(); err != nil {
		return nil, err
	}
	st := e.Stats()
	run.timings = st.TickTimings
	run.ckpts = st.Checkpoints

	if mode != engine.ModeNone {
		// Measure real recovery: restore from the throttled backup plus log
		// replay.
		e2, err := engine.Open(eopts)
		if err != nil {
			return nil, err
		}
		rec := e2.Recovery()
		run.restoreDur = rec.RestoreDuration
		run.replayDur = rec.ReplayDuration
		if err := e2.Close(); err != nil {
			return nil, err
		}
	}
	return run, nil
}
