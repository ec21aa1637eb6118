package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/game"
	"repro/internal/report"
	"repro/internal/trace"
)

// GameResult holds the Figure 5 bar values and the Table 5 trace
// characteristics measured from our Knights-and-Archers implementation.
type GameResult struct {
	Stats      game.Stats
	TraceStats trace.Stats
	// Bars renders the three bar charts of Figure 5 as one table: per
	// method, overhead / checkpoint / recovery.
	Bars *report.TextTable
	Raw  map[checkpoint.Method]*checkpoint.Result
}

// RunGameTrace reproduces Figure 5 and Table 5: generate the prototype game
// server's update trace, then drive all six methods over it.
func RunGameTrace(s Scale, seed int64) (*GameResult, error) {
	gcfg := GameConfig(s)
	gcfg.Seed = seed
	ticks := Ticks(s)
	mem, stats, err := game.GenerateTrace(gcfg, ticks)
	if err != nil {
		return nil, err
	}
	g, err := game.New(gcfg) // only for the table geometry
	if err != nil {
		return nil, err
	}
	cfg := simParamsForTable(s, g.Table())

	methods := checkpoint.Methods()
	results, err := checkpoint.RunAll(methods, cfg, mem)
	if err != nil {
		return nil, err
	}
	gr := &GameResult{
		Stats:      stats,
		TraceStats: trace.Measure(mem),
		Raw:        map[checkpoint.Method]*checkpoint.Result{},
	}
	t := report.NewTextTable()
	t.Header("method", "avg overhead [msec]", "avg time to checkpoint [sec]", "est. recovery [sec]")
	for _, r := range results {
		gr.Raw[r.Method] = r
		t.Row(r.Method.ShortName(),
			fmt.Sprintf("%.3f", r.AvgOverhead*1e3),
			fmt.Sprintf("%.3f", r.AvgCheckpointTime),
			fmt.Sprintf("%.3f", r.RecoveryTime))
	}
	gr.Bars = t
	return gr, nil
}

// Table5 renders the measured trace characteristics next to the paper's.
func (gr *GameResult) Table5() *report.TextTable {
	t := report.NewTextTable()
	t.Header("parameter", "paper (Table 5)", "this reproduction")
	t.Row("number of units", "400,128", fmt.Sprint(gr.Stats.Units))
	t.Row("number of attributes per unit", "13", fmt.Sprint(gr.Stats.Attrs))
	t.Row("number of ticks", "1,000", fmt.Sprint(gr.Stats.Ticks))
	t.Row("avg. number of updates per tick", "35,590",
		fmt.Sprintf("%.0f", gr.Stats.AvgUpdatesTick))
	return t
}
