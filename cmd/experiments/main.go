// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all -scale quick
//	experiments -exp fig2a,fig2b,fig2c -scale full
//	experiments -exp fig6 -scale full -out results/
//	experiments -exp list
//
// The experiment set is a registry (see experimentTable below): -exp list
// prints every registered name, the -exp flag's usage text is generated
// from the same table, and an unknown name errors out listing it — the doc,
// the flag and the dispatcher cannot drift apart. Output is printed as
// aligned text tables; -out additionally writes CSV files per figure.
//
// -shards N runs the fig6 validation engine sharded (N checkpoint
// flushers). recoverytime runs one crash point per scenario × checkpoint
// method × shard count × log length: warm checkpointing, a replicated live
// phase, standby promotion, then cold pipeline recovery of the dead
// primary's directory at the cell's width and at one shard (the serial
// ΔTrestore + ΔTreplay baseline). It reports the ΔTrestore/ΔTreplay
// breakdown with the takeover next to it, and exits non-zero unless every
// cell's promoted, cold and one-shard states are byte-identical to the
// serial reference and replay exactly the log length. -recovery-log-ticks pins one
// log length and -recovery-disk the backup throttle. Its timings are
// informational: performance is gated by the repo benchmark
// (BENCHMARK.json, bash benchmark/run.sh), not by this command.
//
// clusterbench runs the real multi-node cluster (internal/cluster) through
// scenario × cluster size × recovery mode (disk pipeline, standby
// promotion): synchronized tick overhead, coordinated world checkpoints,
// whole-world recovery down each ladder rung with the served mode
// reported, and a live partition migration cut, with per-cell byte identity against a single-node
// reference. -cluster-scenarios, -cluster-sizes and
// -cluster-recovery-modes trim the sweep. -cluster-max-skew is the
// coordination-window axis (a list of cluster MaxSkew values, default 0 =
// the barrier): a cell at a window > 0 runs the same scenarios with nodes
// ticking up to that far apart, live cross-partition messages and
// cut-reconstruction recovery, reporting the coordinator's per-tick blocked
// time next to the barrier's.
//
// gatewaybench runs the session tier (internal/session) over the real
// cluster: a simulated client population connects through a gateway,
// per-tick intents flow in and interest-managed deltas flow back out, per
// churn profile × cluster size. It reports sustainable clients/node under
// the paper's 50ms tick budget, intent→visible latency, churn absorbed by
// the login/reconnect storm profiles, and crash equivalence against an
// independent reference instance. -gateway-profiles, -gateway-sizes and
// -gateway-clients trim the sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/session"
)

// experimentTable is the single registry the -exp flag's usage text, the
// list subcommand, unknown-name errors, and the dispatcher all derive from.
// Entries run in table order; an entry with several names runs once when
// any of them is selected (its runner re-checks want for sub-figures).
var experimentTable = []struct {
	names []string
	run   func(r *runner, want func(string) bool)
}{
	{[]string{"table1", "table2"}, func(r *runner, _ func(string) bool) { r.tables12() }},
	{[]string{"table3"}, func(r *runner, _ func(string) bool) { r.table3() }},
	{[]string{"fig2a", "fig2b", "fig2c"}, func(r *runner, want func(string) bool) {
		r.fig2(want("fig2a"), want("fig2b"), want("fig2c"))
	}},
	{[]string{"fig3"}, func(r *runner, _ func(string) bool) { r.fig3() }},
	{[]string{"fig4a", "fig4b", "fig4c"}, func(r *runner, want func(string) bool) {
		r.fig4(want("fig4a"), want("fig4b"), want("fig4c"))
	}},
	{[]string{"fig5", "table5"}, func(r *runner, _ func(string) bool) { r.fig5() }},
	{[]string{"fig6"}, func(r *runner, _ func(string) bool) { r.fig6() }},
	{[]string{"ablation-c"}, func(r *runner, _ func(string) bool) { r.ablationC() }},
	{[]string{"ablation-sorted"}, func(r *runner, _ func(string) bool) { r.ablationSorted() }},
	{[]string{"ablation-hw"}, func(r *runner, _ func(string) bool) { r.ablationHW() }},
	{[]string{"logging"}, func(r *runner, _ func(string) bool) { r.logging() }},
	{[]string{"ksafety"}, func(r *runner, _ func(string) bool) { r.ksafety() }},
	{[]string{"recoverytime"}, func(r *runner, _ func(string) bool) { r.recoverytime() }},
	{[]string{"clusterbench"}, func(r *runner, _ func(string) bool) { r.clusterbench() }},
	{[]string{"gatewaybench"}, func(r *runner, _ func(string) bool) { r.gatewaybench() }},
}

// experimentNames flattens the registry, in table order.
func experimentNames() []string {
	var names []string
	for _, e := range experimentTable {
		names = append(names, e.names...)
	}
	return names
}

// The flags live at package level so main_test.go can check, with
// flag.Lookup, that every flag the docs name exists.
var (
	expFlag = flag.String("exp", "all",
		"comma-separated experiments, 'all', or 'list' (registered: "+
			strings.Join(experimentNames(), ", ")+")")
	scaleFlag  = flag.String("scale", "quick", "quick (1/10 scale) or full (paper scale)")
	outDir     = flag.String("out", "", "directory for CSV output (optional)")
	gnuplot    = flag.Bool("gnuplot", false, "also write gnuplot scripts next to the CSVs")
	seed       = flag.Int64("seed", 1, "trace seed")
	diskBench  = flag.Bool("disk-bench", false, "measure real disk bandwidth for table3 (writes 256 MB)")
	shards     = flag.Int("shards", 0, "engine shards for fig6 validation (0 = paper-faithful single shard)")
	recLog     = flag.Int("recovery-log-ticks", 0, "single log length for recoverytime (0 = scale default sweep)")
	recDisk    = flag.Float64("recovery-disk", 0, "recoverytime backup throttle in bytes/sec (0 = paper disk, <0 = unthrottled)")
	clustScen  = flag.String("cluster-scenarios", "", "comma-separated clusterbench scenario filter (empty = hotspot,migration,flashcrowd)")
	clustSize  = flag.String("cluster-sizes", "", "comma-separated clusterbench node counts (empty = 1,2,4)")
	clustRec   = flag.String("cluster-recovery-modes", "", "comma-separated clusterbench recovery-mode axis (empty = disk,standby)")
	clustSkews = flag.String("cluster-max-skew", "", "comma-separated clusterbench coordination-window axis, cluster MaxSkew values (empty = 0, the barrier)")
	gwProf     = flag.String("gateway-profiles", "", "comma-separated gatewaybench churn profiles (empty = "+joinProfiles()+")")
	gwSize     = flag.String("gateway-sizes", "", "comma-separated gatewaybench node counts (empty = 1,2,4)")
	gwClients  = flag.Int("gateway-clients", 0, "gatewaybench simulated client population (0 = scale default)")
)

func main() {
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fatalf("unknown scale %q (quick|full)", *scaleFlag)
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	if wanted["list"] {
		fmt.Println(strings.Join(experimentNames(), "\n"))
		return
	}
	known := map[string]bool{"all": true}
	for _, name := range experimentNames() {
		known[name] = true
	}
	for name := range wanted {
		if !known[name] {
			fatalf("unknown experiment %q (have: all, %s)", name, strings.Join(experimentNames(), ", "))
		}
	}
	all := wanted["all"]
	want := func(name string) bool { return all || wanted[name] }

	r := &runner{scale: scale}

	for _, e := range experimentTable {
		hit := all
		for _, name := range e.names {
			if wanted[name] {
				hit = true
			}
		}
		if hit {
			e.run(r, want)
		}
	}
	if r.ran == 0 {
		fatalf("no experiment matched %q", *expFlag)
	}
}

// joinProfiles renders the session churn profiles for the flag usage text.
func joinProfiles() string {
	var names []string
	for _, p := range session.Profiles() {
		names = append(names, string(p))
	}
	return strings.Join(names, ",")
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}

// runner carries the parsed scale and counts what was emitted; every other
// knob is read straight from its flag.
type runner struct {
	scale experiments.Scale
	ran   int
}

func (r *runner) emit(name string, fig *report.Figure) {
	r.ran++
	fmt.Printf("\n=== %s ===\n%s", name, fig.String())
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		path := filepath.Join(*outDir, name+".csv")
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("(csv written to %s)\n", path)
		if *gnuplot {
			logAxes := strings.Contains(name, "fig2") || strings.Contains(name, "fig6")
			plt := filepath.Join(*outDir, name+".plt")
			if err := os.WriteFile(plt, []byte(fig.Gnuplot(logAxes, logAxes)), 0o644); err != nil {
				fatalf("%v", err)
			}
		}
	}
}

func (r *runner) emitTable(name string, t *report.TextTable) {
	r.ran++
	fmt.Printf("\n=== %s ===\n%s", name, t.String())
}

func (r *runner) timed(name string, fn func()) {
	start := time.Now()
	fn()
	fmt.Printf("(%s took %v)\n", name, time.Since(start).Round(time.Millisecond))
}

func (r *runner) tables12() {
	t1 := report.NewTextTable()
	t1.Header("method", "copy timing", "objects copied", "disk organization")
	for _, c := range checkpoint.Taxonomy() {
		t1.Row(c.Method.String(), c.Timing.String(), c.Objects.String(), c.Disk.String())
	}
	r.emitTable("Table 1: algorithms for checkpointing game state", t1)

	t2 := report.NewTextTable()
	t2.Header("method", "Copy-To-Memory", "Write-Copies", "Handle-Update", "Write-Objects")
	for _, row := range checkpoint.SubroutineTable() {
		t2.Row(row.Method.String(), row.CopyToMemory, row.WriteCopiesToStableStorage,
			row.HandleUpdate, row.WriteObjectsToStable)
	}
	r.emitTable("Table 2: subroutine implementations", t2)
}

func (r *runner) table3() {
	r.timed("table3", func() {
		p, err := experiments.MeasureTable3(*diskBench, "")
		if err != nil {
			fatalf("table3: %v", err)
		}
		r.emitTable("Table 3: cost-model parameters (paper vs this host)",
			experiments.Table3Comparison(p))
	})
}

func (r *runner) fig2(a, b, c bool) {
	r.timed("fig2", func() {
		fs, err := experiments.RunUpdateSweep(r.scale, *seed)
		if err != nil {
			fatalf("fig2: %v", err)
		}
		if a {
			r.emit("fig2a-overhead-vs-updates", &fs.Overhead)
		}
		if b {
			r.emit("fig2b-checkpoint-vs-updates", &fs.Checkpoint)
		}
		if c {
			r.emit("fig2c-recovery-vs-updates", &fs.Recovery)
		}
	})
}

func (r *runner) fig3() {
	r.timed("fig3", func() {
		tl, err := experiments.RunLatencyTimeline(r.scale, *seed)
		if err != nil {
			fatalf("fig3: %v", err)
		}
		r.emit("fig3-latency-timeline", &tl.Figure)
	})
}

func (r *runner) fig4(a, b, c bool) {
	r.timed("fig4", func() {
		fs, err := experiments.RunSkewSweep(r.scale, *seed)
		if err != nil {
			fatalf("fig4: %v", err)
		}
		if a {
			r.emit("fig4a-overhead-vs-skew", &fs.Overhead)
		}
		if b {
			r.emit("fig4b-checkpoint-vs-skew", &fs.Checkpoint)
		}
		if c {
			r.emit("fig4c-recovery-vs-skew", &fs.Recovery)
		}
	})
}

func (r *runner) fig5() {
	r.timed("fig5", func() {
		gr, err := experiments.RunGameTrace(r.scale, *seed)
		if err != nil {
			fatalf("fig5: %v", err)
		}
		r.emitTable("Table 5: game trace characteristics", gr.Table5())
		fmt.Printf("measured trace: %s\n", gr.TraceStats)
		r.emitTable("Figure 5: overhead / checkpoint / recovery on the game trace", gr.Bars)
	})
}

func (r *runner) fig6() {
	r.timed("fig6", func() {
		vr, err := experiments.RunValidation(r.scale, experiments.ValidationOptions{Seed: *seed, Shards: *shards})
		if err != nil {
			fatalf("fig6: %v", err)
		}
		r.emit("fig6a-validation-overhead", &vr.Overhead)
		r.emit("fig6b-validation-checkpoint", &vr.Checkpoint)
		r.emit("fig6c-validation-recovery", &vr.Recovery)
		fmt.Println("note: implementation overhead is instrumented checkpoint work " +
			"(GC-noise-free), baseline-subtracted")
	})
}

func (r *runner) ablationC() {
	r.timed("ablation-c", func() {
		ckpt, rec, err := experiments.RunAblationFullEvery(r.scale, *seed)
		if err != nil {
			fatalf("ablation-c: %v", err)
		}
		r.emit("ablation-fullevery-checkpoint", ckpt)
		r.emit("ablation-fullevery-recovery", rec)
	})
}

func (r *runner) ablationSorted() {
	r.emit("ablation-sorted-writes", experiments.RunAblationSortedWrites(r.scale))
}

func (r *runner) logging() {
	fig := experiments.RunLoggingFeasibility(r.scale)
	r.emit("extension-logging-feasibility", fig)
	fmt.Printf("physical logging saturates the disk at ≈%.0f updates/tick\n",
		experiments.MaxPhysicalLoggingRate(r.scale))
}

func (r *runner) ksafety() {
	r.timed("ksafety", func() {
		tab, err := experiments.RunKSafetyComparison(r.scale, *seed)
		if err != nil {
			fatalf("ksafety: %v", err)
		}
		r.emitTable("Extension: checkpoint recovery vs K-safe replication (Section 7)", tab)
	})
}

func (r *runner) clusterbench() {
	r.timed("clusterbench", func() {
		var sizes []int
		for _, v := range splitList(*clustSize) {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				fatalf("clusterbench: bad -cluster-sizes entry %q", v)
			}
			sizes = append(sizes, n)
		}
		var windows []int
		for _, v := range splitList(*clustSkews) {
			w, err := strconv.Atoi(v)
			if err != nil || w < 0 {
				fatalf("clusterbench: bad -cluster-max-skew entry %q", v)
			}
			windows = append(windows, w)
		}
		var modes []cluster.RecoveryMode
		for _, v := range splitList(*clustRec) {
			m, err := cluster.ParseRecoveryMode(v)
			if err != nil {
				fatalf("clusterbench: bad -cluster-recovery-modes entry %q", v)
			}
			modes = append(modes, m)
		}
		cb, err := experiments.RunClusterBench(r.scale, *seed, experiments.ClusterBenchOptions{
			Scenarios:     splitList(*clustScen),
			Sizes:         sizes,
			RecoveryModes: modes,
			Windows:       windows,
		})
		if err != nil {
			fatalf("clusterbench: %v", err)
		}
		r.emitTable("Cluster bench: scenario × nodes × window (ticks / cuts / whole-world recovery / migration)",
			cb.Table())
		r.emit("clusterbench-tick", &cb.Tick)
		r.emit("clusterbench-recovery", &cb.Recovery)
		for _, row := range cb.Rows {
			if !row.Identical {
				fatalf("clusterbench: %s/nodes=%d/maxskew=%d NOT byte-identical to the single-node reference",
					row.Scenario, row.Nodes, row.MaxSkew)
			}
		}
		fmt.Printf("cluster crash equivalence: all %d rows byte-identical to the single-node reference\n",
			len(cb.Rows))
	})
}

func (r *runner) gatewaybench() {
	r.timed("gatewaybench", func() {
		var profiles []session.Profile
		for _, v := range splitList(*gwProf) {
			profiles = append(profiles, session.Profile(v))
		}
		var sizes []int
		for _, v := range splitList(*gwSize) {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				fatalf("gatewaybench: bad -gateway-sizes entry %q", v)
			}
			sizes = append(sizes, n)
		}
		gb, err := experiments.RunGatewayBench(r.scale, *seed, experiments.GatewayBenchOptions{
			Profiles: profiles,
			Sizes:    sizes,
			Clients:  *gwClients,
		})
		if err != nil {
			fatalf("gatewaybench: %v", err)
		}
		r.emitTable("Gateway bench: churn profile × nodes (client capacity / intent→visible latency / churn / crash equivalence)",
			gb.Table())
		r.emit("gatewaybench-capacity", &gb.Capacity)
		r.emit("gatewaybench-latency", &gb.Latency)
		// Identity covers both legs: per-tick update sets matched the
		// independent reference instance tick for tick, and the recovered
		// world matched its final bytes.
		for _, row := range gb.Rows {
			if !row.Identical {
				fatalf("gatewaybench: %s/nodes=%d NOT byte-identical to the reference gateway instance",
					row.Profile, row.Nodes)
			}
		}
		fmt.Printf("session crash equivalence: all %d rows byte-identical to an independent gateway+driver reference\n",
			len(gb.Rows))
	})
}

func (r *runner) recoverytime() {
	r.timed("recoverytime", func() {
		var logTicks []int
		if *recLog > 0 {
			logTicks = []int{*recLog}
		}
		rt, err := experiments.RunRecoveryTime(r.scale, *seed, experiments.RecoveryTimeOptions{
			LogTicks:        logTicks,
			DiskBytesPerSec: *recDisk,
		})
		if err != nil {
			fatalf("recoverytime: %v", err)
		}
		r.emitTable("Recovery time: scenario × method × L × shards (apply / ΔTrestore / ΔTreplay / pipeline / serial / takeover)",
			rt.Table())
		r.emit("recoverytime-restore", &rt.Restore)
		r.emit("recoverytime-replay", &rt.Replay)
		r.emit("recoverytime-total", &rt.Total)
		// Byte identity is unconditional: whatever the timings, a recovery
		// path that reconstructs different bytes is corrupt.
		for _, row := range rt.Rows {
			if !row.Identical {
				fatalf("recoverytime: %s NOT byte-identical to the serial reference", row.Cell())
			}
			if row.ReplayedTicks != row.LogTicks {
				fatalf("recoverytime: %s replayed %d ticks, want %d", row.Cell(), row.ReplayedTicks, row.LogTicks)
			}
		}
		fmt.Printf("crash equivalence: all %d cells byte-identical to the serial reference (promoted, cold and one-shard), each replaying exactly its log length\n",
			len(rt.Rows))
	})
}

func (r *runner) ablationHW() {
	r.timed("ablation-hw", func() {
		diskFig, memFig, err := experiments.RunAblationHardware(r.scale, *seed)
		if err != nil {
			fatalf("ablation-hw: %v", err)
		}
		r.emit("ablation-disk-bandwidth", diskFig)
		r.emit("ablation-mem-bandwidth", memFig)
	})
}
