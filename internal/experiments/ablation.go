package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/report"
)

// RunAblationFullEvery sweeps C — the number of checkpoints between full
// state dumps for the partial-redo methods (Section 4.2's ∆Trestore depends
// linearly on C). It exposes the trade-off the paper describes: small C
// erodes the checkpoint-time advantage, large C inflates recovery.
func RunAblationFullEvery(s Scale, seed int64) (*report.Figure, *report.Figure, error) {
	cfg := Config(s)
	ticks := Ticks(s)
	updates := DefaultUpdates(s) / 8 // a moderate rate where partial redo shines
	cs := []int{2, 4, 8, 10, 16, 32}

	ckpt := &report.Figure{
		Title:  fmt.Sprintf("Ablation (%s scale): full-checkpoint period C vs checkpoint time", s),
		XLabel: "C (full checkpoint every C checkpoints)",
		YLabel: "avg time to checkpoint [sec]",
	}
	rec := &report.Figure{
		Title:  fmt.Sprintf("Ablation (%s scale): full-checkpoint period C vs recovery time", s),
		XLabel: "C (full checkpoint every C checkpoints)",
		YLabel: "est. recovery time [sec]",
	}
	for _, m := range []checkpoint.Method{checkpoint.PartialRedo, checkpoint.CopyOnUpdatePartialRedo} {
		sc := report.Series{Name: m.String()}
		sr := report.Series{Name: m.String()}
		for _, c := range cs {
			cCfg := cfg
			cCfg.FullEvery = c
			src, err := zipfSource(cCfg, updates, ticks, DefaultSkew, seed)
			if err != nil {
				return nil, nil, err
			}
			res, err := checkpoint.Run(m, cCfg, src)
			if err != nil {
				return nil, nil, err
			}
			sc.Add(float64(c), res.AvgCheckpointTime)
			sr.Add(float64(c), res.RecoveryTime)
		}
		ckpt.Add(sc)
		rec.Add(sr)
	}
	return ckpt, rec, nil
}

// RunAblationSortedWrites prices the sorted-write optimization of Section
// 3.2 analytically: the time to commit k dirty sectors to a double backup
// with the sorted full-rotation sweep versus naive random in-place writes.
// "This sorted I/O optimization is crucial for algorithms that use a
// double-backup organization."
func RunAblationSortedWrites(s Scale) *report.Figure {
	cfg := Config(s)
	n := cfg.Table.NumObjects()
	fig := &report.Figure{
		Title:  fmt.Sprintf("Ablation (%s scale): sorted vs random double-backup writes", s),
		XLabel: "dirty objects k",
		YLabel: "flush time [sec]",
	}
	sorted := report.Series{Name: "sorted sweep (paper)"}
	random := report.Series{Name: "random in-place writes"}
	seq := report.Series{Name: "sequential log (reference)"}
	for _, frac := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		sorted.Add(float64(k), cfg.Params.AsyncDoubleBackup(k, n))
		random.Add(float64(k), cfg.Params.AsyncRandom(k))
		seq.Add(float64(k), cfg.Params.AsyncLog(k))
	}
	fig.Add(sorted)
	fig.Add(random)
	fig.Add(seq)
	return fig
}

// RunAblationHardware is the sensitivity study the paper names as future
// work in Section 8: how disk and memory bandwidth choices move the
// Naive-Snapshot versus Copy-on-Update comparison.
func RunAblationHardware(s Scale, seed int64) (*report.Figure, *report.Figure, error) {
	base := Config(s)
	ticks := Ticks(s)
	updates := DefaultUpdates(s)
	methods := []checkpoint.Method{checkpoint.NaiveSnapshot, checkpoint.CopyOnUpdate}

	// Disk bandwidth sweep: recovery time is disk-bound.
	diskFig := &report.Figure{
		Title:  fmt.Sprintf("Ablation (%s scale): disk bandwidth vs recovery time", s),
		XLabel: "disk bandwidth [MB/s]",
		YLabel: "est. recovery time [sec]",
	}
	for _, m := range methods {
		series := report.Series{Name: m.String()}
		for _, mult := range []float64{0.5, 1, 2, 4, 8} {
			cfg := base
			cfg.Params.DiskBandwidth = base.Params.DiskBandwidth * mult
			src, err := zipfSource(cfg, updates, ticks, DefaultSkew, seed)
			if err != nil {
				return nil, nil, err
			}
			res, err := checkpoint.Run(m, cfg, src)
			if err != nil {
				return nil, nil, err
			}
			series.Add(cfg.Params.DiskBandwidth/1e6, res.RecoveryTime)
		}
		diskFig.Add(series)
	}

	// Memory bandwidth sweep: the eager pause is memory-bound.
	memFig := &report.Figure{
		Title:  fmt.Sprintf("Ablation (%s scale): memory bandwidth vs max tick overhead", s),
		XLabel: "memory bandwidth [GB/s]",
		YLabel: "max tick overhead [sec]",
	}
	for _, m := range methods {
		series := report.Series{Name: m.String()}
		for _, mult := range []float64{0.5, 1, 2, 4, 8} {
			cfg := base
			cfg.Params.MemBandwidth = base.Params.MemBandwidth * mult
			src, err := zipfSource(cfg, updates, ticks, DefaultSkew, seed)
			if err != nil {
				return nil, nil, err
			}
			res, err := checkpoint.Run(m, cfg, src)
			if err != nil {
				return nil, nil, err
			}
			series.Add(cfg.Params.MemBandwidth/1e9, res.MaxOverhead)
		}
		memFig.Add(series)
	}
	return diskFig, memFig, nil
}
