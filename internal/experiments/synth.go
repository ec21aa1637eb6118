package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/report"
)

// FigureSet holds the three per-sweep figures the paper reports: average
// overhead per tick, average time to checkpoint, and estimated recovery
// time — i.e. one row of Figure 2 or Figure 4.
type FigureSet struct {
	Overhead   report.Figure
	Checkpoint report.Figure
	Recovery   report.Figure
	// Raw holds the full simulation results: Raw[method][i] corresponds to
	// x value i of the sweep.
	Raw map[checkpoint.Method][]*checkpoint.Result
	X   []float64
}

func newFigureSet(title, xlabel string) *FigureSet {
	return &FigureSet{
		Overhead: report.Figure{
			Title: title + ": average overhead time", XLabel: xlabel,
			YLabel: "avg overhead per tick [sec]",
		},
		Checkpoint: report.Figure{
			Title: title + ": time to checkpoint", XLabel: xlabel,
			YLabel: "avg time to checkpoint [sec]",
		},
		Recovery: report.Figure{
			Title: title + ": recovery time", XLabel: xlabel,
			YLabel: "est. recovery time [sec]",
		},
		Raw: map[checkpoint.Method][]*checkpoint.Result{},
	}
}

func (f *FigureSet) add(m checkpoint.Method, x float64, r *checkpoint.Result) {
	f.Raw[m] = append(f.Raw[m], r)
}

func (f *FigureSet) build(methods []checkpoint.Method) {
	for _, m := range methods {
		so := report.Series{Name: m.String()}
		sc := report.Series{Name: m.String()}
		sr := report.Series{Name: m.String()}
		for i, r := range f.Raw[m] {
			so.Add(f.X[i], r.AvgOverhead)
			sc.Add(f.X[i], r.AvgCheckpointTime)
			sr.Add(f.X[i], r.RecoveryTime)
		}
		f.Overhead.Add(so)
		f.Checkpoint.Add(sc)
		f.Recovery.Add(sr)
	}
}

// RunUpdateSweep reproduces Figure 2: all six methods across the
// updates-per-tick sweep at the default skew.
func RunUpdateSweep(s Scale, seed int64) (*FigureSet, error) {
	cfg := Config(s)
	ticks := Ticks(s)
	methods := checkpoint.Methods()
	fs := newFigureSet(fmt.Sprintf("Figure 2 (%s scale)", s), "# updates per tick")
	for _, updates := range UpdateSweep(s) {
		src, err := zipfSource(cfg, updates, ticks, DefaultSkew, seed)
		if err != nil {
			return nil, err
		}
		results, err := checkpoint.RunAll(methods, cfg, src)
		if err != nil {
			return nil, err
		}
		fs.X = append(fs.X, float64(updates))
		for _, r := range results {
			fs.add(r.Method, float64(updates), r)
		}
	}
	fs.build(methods)
	return fs, nil
}

// RunSkewSweep reproduces Figure 4: all six methods across update skews at
// the default update rate.
func RunSkewSweep(s Scale, seed int64) (*FigureSet, error) {
	cfg := Config(s)
	ticks := Ticks(s)
	updates := DefaultUpdates(s)
	methods := checkpoint.Methods()
	fs := newFigureSet(fmt.Sprintf("Figure 4 (%s scale)", s), "skew")
	for _, skew := range SkewSweep() {
		src, err := zipfSource(cfg, updates, ticks, skew, seed)
		if err != nil {
			return nil, err
		}
		results, err := checkpoint.RunAll(methods, cfg, src)
		if err != nil {
			return nil, err
		}
		fs.X = append(fs.X, skew)
		for _, r := range results {
			fs.add(r.Method, skew, r)
		}
	}
	fs.build(methods)
	return fs, nil
}

// Timeline is the Figure 3 latency analysis: per-tick lengths for a window
// of ticks, plus the half-tick latency limit line the paper draws.
type Timeline struct {
	Figure report.Figure
	// Limit is the latency limit: nominal tick + half a tick.
	Limit float64
	// Raw results per method (KeepSeries on).
	Raw map[checkpoint.Method]*checkpoint.Result
}

// RunLatencyTimeline reproduces Figure 3: tick length versus tick number at
// the default update rate (64,000 at full scale), ticks 55–110.
func RunLatencyTimeline(s Scale, seed int64) (*Timeline, error) {
	cfg := Config(s)
	cfg.KeepSeries = true
	updates := DefaultUpdates(s)
	// The window of Figure 3; the pattern repeats over the rest of the run.
	const winStart, winEnd = 55, 110
	ticks := winEnd + 10
	methods := checkpoint.Methods()

	src, err := zipfSource(cfg, updates, ticks, DefaultSkew, seed)
	if err != nil {
		return nil, err
	}
	results, err := checkpoint.RunAll(methods, cfg, src)
	if err != nil {
		return nil, err
	}
	tl := &Timeline{
		Figure: report.Figure{
			Title:  fmt.Sprintf("Figure 3 (%s scale): latency analysis", s),
			XLabel: "tick #", YLabel: "tick length [sec]",
		},
		Limit: cfg.Params.TickLen() * 1.5,
		Raw:   map[checkpoint.Method]*checkpoint.Result{},
	}
	limit := report.Series{Name: "Latency Limit"}
	for t := winStart; t <= winEnd; t++ {
		limit.Add(float64(t), tl.Limit)
	}
	tl.Figure.Add(limit)
	for _, r := range results {
		tl.Raw[r.Method] = r
		series := report.Series{Name: r.Method.String()}
		for t := winStart; t <= winEnd; t++ {
			series.Add(float64(t), r.TickLength(t))
		}
		tl.Figure.Add(series)
	}
	return tl, nil
}
