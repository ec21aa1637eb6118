// Command checksim runs the checkpoint simulator for one configuration and
// prints its metrics — the direct analogue of one data point in the paper's
// figures.
//
// Usage:
//
//	checksim -method cou -updates 64000 -skew 0.8 -ticks 1000
//	checksim -method all -updates 8000
//	checksim -trace battle.trace -method naive
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/gamestate"
	"repro/internal/report"
	"repro/internal/trace"
)

var methodNames = map[string]checkpoint.Method{
	"naive":   checkpoint.NaiveSnapshot,
	"dribble": checkpoint.DribbleCopyOnUpdate,
	"atomic":  checkpoint.AtomicCopyDirtyObjects,
	"pr":      checkpoint.PartialRedo,
	"cou":     checkpoint.CopyOnUpdate,
	"coupr":   checkpoint.CopyOnUpdatePartialRedo,
}

func main() {
	var (
		method    = flag.String("method", "all", "naive|dribble|atomic|pr|cou|coupr|all")
		updates   = flag.Int("updates", 64000, "updates per tick (zipf trace)")
		skew      = flag.Float64("skew", 0.8, "zipf skew in [0,1)")
		ticks     = flag.Int("ticks", 1000, "number of ticks")
		rows      = flag.Int("rows", 1_000_000, "table rows")
		cols      = flag.Int("cols", 10, "table columns")
		fullEvery = flag.Int("full-every", 10, "C: full checkpoint period for partial-redo methods")
		seed      = flag.Int64("seed", 1, "trace seed")
		traceFile = flag.String("trace", "", "binary trace file (overrides zipf flags)")
	)
	flag.Parse()

	cfg := checkpoint.DefaultConfig()
	cfg.Table = gamestate.Table{Rows: *rows, Cols: *cols, CellSize: 4, ObjSize: 512}
	cfg.FullEvery = *fullEvery

	var src trace.Source
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		mem, err := trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		src = mem
		// Size the table to the trace if the defaults don't cover it.
		if mem.NumCells() > cfg.Table.NumCells() {
			cfg.Table.Rows = (mem.NumCells() + *cols - 1) / *cols
		}
		fmt.Printf("trace: %s\n", trace.Measure(mem))
	} else {
		z, err := trace.NewZipfian(trace.ZipfianConfig{
			Table:          cfg.Table,
			UpdatesPerTick: *updates,
			Ticks:          *ticks,
			Skew:           *skew,
			Seed:           *seed,
		})
		if err != nil {
			fatal(err)
		}
		src = z
		fmt.Printf("zipf trace: %d updates/tick, skew %.2f, %d ticks over %s\n",
			*updates, *skew, *ticks, cfg.Table)
	}

	var methods []checkpoint.Method
	if *method == "all" {
		methods = checkpoint.Methods()
	} else {
		m, ok := methodNames[strings.ToLower(*method)]
		if !ok {
			fatal(fmt.Errorf("unknown method %q (naive|dribble|atomic|pr|cou|coupr|all)", *method))
		}
		methods = []checkpoint.Method{m}
	}

	results, err := checkpoint.RunAll(methods, cfg, src)
	if err != nil {
		fatal(err)
	}
	t := report.NewTextTable()
	t.Header("method", "avg overhead/tick", "max overhead", "ckpts",
		"avg ckpt time", "avg objects", "est. restore", "est. recovery")
	for _, r := range results {
		t.Row(r.Method.String(),
			report.FormatDuration(r.AvgOverhead),
			report.FormatDuration(r.MaxOverhead),
			fmt.Sprint(len(r.Checkpoints)),
			report.FormatDuration(r.AvgCheckpointTime),
			fmt.Sprintf("%.0f", r.AvgObjects),
			report.FormatDuration(r.RestoreTime),
			report.FormatDuration(r.RecoveryTime))
	}
	fmt.Print(t.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checksim:", err)
	os.Exit(1)
}
