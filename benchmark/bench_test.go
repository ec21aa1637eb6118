package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() with -child, and under `go test` that
// is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRankAndRefusal(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {1, 10}, {0.05, 1}} {
		got, err := percentile(s, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..1000 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// 1000 samples leave exactly ten beyond p99; 999 leave nine.
	if _, err := percentile(s[:999], 99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if _, err := percentile(s, 99.5); err == nil {
		t.Error("p99.5 of 1000 samples was not refused")
	}
	if _, err := percentile(s[:21], 50); err != nil {
		t.Errorf("median of 21 samples refused: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples was not refused")
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	got, ok := quartileSpread(vals)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, %v; want %v", got, ok, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	got, ok = quartileSpread([]float64{1, 2})
	if want := 1.5 / 1.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, %v; want %v", got, ok, want)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("spread of one value was given")
	}
}

func TestSpanSelfTimeAndSumToParent(t *testing.T) {
	tick := func(id int, fanoutEnd int64) []span {
		return []span{
			{Tree: treeTick, ID: id, Name: "tick", Start: 0, End: 1000},
			{Tree: treeTick, ID: id, Name: "session.submit", Parent: "tick", Start: 0, End: 100},
			{Tree: treeTick, ID: id, Name: "session.step", Parent: "tick", Start: 100, End: 700},
			{Tree: treeTick, ID: id, Name: "world.tick", Parent: "session.step", Start: 150, End: 650},
			{Tree: treeTick, ID: id, Name: "session.fanout", Parent: "tick", Start: 700, End: fanoutEnd},
		}
	}
	spans := append(tick(1, 1000), tick(2, 1000)...)
	if err := checkTrees(spans); err != nil {
		t.Fatalf("complete trees rejected: %v", err)
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"tick": 0, "session.submit": 200, "session.step": 200, "world.tick": 1000, "session.fanout": 600,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	// Children that miss 4% of the parent fail; 2% pass.
	if err := checkTrees(tick(3, 960)); err == nil {
		t.Error("children missing 4% of the tick were accepted")
	}
	if err := checkTrees(tick(4, 980)); err != nil {
		t.Errorf("children missing 2%% of the tick were rejected: %v", err)
	}
	if err := checkTrees(tick(5, 1000)[1:]); err == nil {
		t.Error("a tree without its root was accepted")
	}
	// Overlapping children (restore ∥ replay) are covered once.
	open := span{Name: "recovery.open", Start: 0, End: 100}
	kids := []span{{Start: 20, End: 70}, {Start: 50, End: 100}, {Start: -10, End: 5}}
	if got := covered(open, kids); got != 85 {
		t.Errorf("covered = %d, want 85", got)
	}
}

// TestMeteredConnReportsStaged drives the conn wrapper with a reader that
// behaves like ServeConn's: read a frame in two reads, handle it, read again.
func TestMeteredConnReportsStaged(t *testing.T) {
	a, b := net.Pipe()
	server, client := newMeteredConn(a), newMeteredConn(b)
	defer server.Close()
	handled := make(chan int, 8) // one entry per frame of the test
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := io.ReadFull(server, buf[:2]); err != nil { // header
				return
			}
			if _, err := io.ReadFull(server, buf[2:8]); err != nil { // body
				return
			}
			time.Sleep(20 * time.Millisecond) // "staging" takes a while
			handled <- int(buf[7])
		}
	}()
	for frame := 1; frame <= 3; frame++ {
		// The header alone must not count as staged, although at that moment
		// the reader has consumed every byte written.
		if _, err := client.Write([]byte{0, 0}); err != nil {
			t.Fatal(err)
		}
		target := client.written.Load() + 6
		if err := server.awaitConsumed(target, 30*time.Millisecond); err == nil {
			t.Fatalf("frame %d: staged after the header alone", frame)
		}
		if _, err := client.Write([]byte{0, 0, 0, 0, 0, byte(frame)}); err != nil {
			t.Fatal(err)
		}
		if got := client.written.Load(); got != target {
			t.Fatalf("client wrote %d bytes, want %d", got, target)
		}
		if err := server.awaitConsumed(target, 5*time.Second); err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		select {
		case got := <-handled:
			if got != frame {
				t.Fatalf("handled frame %d, want %d", got, frame)
			}
		default:
			t.Fatalf("frame %d reported staged before the reader had handled it", frame)
		}
		server.mu.Lock()
		got := server.consumed
		server.mu.Unlock()
		if got != target {
			t.Fatalf("server consumed %d bytes, want %d", got, target)
		}
	}
	client.Close()
}

// TestWrappersLeaveSameBytes runs the same ticks, checkpoint and close with
// and without the device wrapper and the World stopwatch, and compares every
// file left behind. The throttle makes the first image outlast the ticks, so
// the checkpoint schedule, and with it every byte, is the same in both runs.
func TestWrappersLeaveSameBytes(t *testing.T) {
	table := gamestate.Table{Rows: 64_000, Cols: 10, CellSize: 4, ObjSize: 512} // 2.5 MB
	src, err := workload.New("hotspot", workload.Config{Table: table, UpdatesPerTick: 800, Ticks: 64, Skew: 0.8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	leave := func(wrapped bool) (string, *deviceStats) {
		dir := t.TempDir()
		opts := engine.Options{
			Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2,
			SyncEveryTick: true, DiskBytesPerSec: 4e6,
		}
		st := &deviceStats{}
		if wrapped {
			opts.DeviceFactory = st.factory
		}
		e, err := engine.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		var cells []uint32
		var batch []wal.Update
		for tick := 0; tick < 10; tick++ {
			cells, batch = workload.TickUpdates(src, tick, cells, batch)
			if err := e.ApplyTickParallel(batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.CheckpointAsOf(9); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, st
	}
	plain, _ := leave(false)
	wrapped, st := leave(true)
	if st.writeCalls.Load() == 0 || st.writeBytes.Load() < table.StateBytes() || st.syncs.Load() == 0 {
		t.Fatalf("the device wrapper saw %d writes, %d bytes, %d syncs", st.writeCalls.Load(), st.writeBytes.Load(), st.syncs.Load())
	}
	files := 0
	err = filepath.WalkDir(plain, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(plain, path)
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(wrapped, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the wrapped and the unwrapped run", rel)
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 3 { // two images and at least one log segment
		t.Fatalf("compared %d files", files)
	}
	// And the wrapped world reads back through the vectored path.
	opts := engine.Options{Table: table, Dir: wrapped, Mode: engine.ModeCopyOnUpdate, Shards: 2, DeviceFactory: st.factory}
	e, _, err := engine.RecoverFrom(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st.readBytes.Load() < table.StateBytes() {
		t.Errorf("recovery read %d bytes through the wrapper, want the %d-byte image", st.readBytes.Load(), table.StateBytes())
	}
}

// runBench runs the benchmark command in this process (its children are
// this test binary, see TestMain) and returns exit status and standard output.
func runBench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout bytes.Buffer
	args = append(args, "-workdir", t.TempDir())
	code := run(args, &stdout, os.Stderr)
	return code, stdout.String()
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at smoke
// scale with the oracle on.
func TestSmokeAllWorkloads(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	code, stdout := runBench(t, "-scale", "smoke", "-seed", "3", "-trace", "1", "-out", out)
	if code != 0 {
		t.Fatalf("exit status %d\n%s", code, stdout)
	}
	file, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 8 {
		t.Fatalf("%d runs in the result file, want 4 untraced + 4 traced", len(file.Runs))
	}
	if file.GOMAXPROCS < 1 || file.GOMAXPROCS > 2 || file.GoVersion == "" || file.Commit == "" || file.Scale != "smoke" {
		t.Errorf("result file header incomplete: %+v", file)
	}
	for _, r := range file.Runs {
		if !r.Correct || r.Failed != 0 || r.failedRatio() != 0 {
			t.Errorf("%s: correct=%v failed=%d %s", r.Workload, r.Correct, r.Failed, r.Mismatch)
		}
		if r.LiveTicks != 30 || r.Recoveries != 3 {
			t.Errorf("%s: %d live ticks, %d recoveries; want 30 and 3", r.Workload, r.LiveTicks, r.Recoveries)
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", r.Workload, d.Name, m)
			}
		}
		if _, ok := r.Metrics["tick_p99_ms"]; ok {
			t.Errorf("%s: a p99 of %d ticks was reported, not refused", r.Workload, r.LiveTicks)
		}
		if !r.Traced {
			continue
		}
		for _, d := range perLayer {
			m, ok := r.Layers[d.Name]
			if d.Name == "tick_p99_ms" {
				if ok {
					t.Errorf("%s: a traced p99 of %d ticks was reported, not refused", r.Workload, r.LiveTicks)
				}
				continue
			}
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v, %v", r.Workload, d.Name, m, ok)
			}
		}
		// The layers a workload runs must show, the ones it bypasses must not.
		gateway := r.Workload == "durable-cluster" || r.Workload == "tcp-engine"
		for name, want := range map[string]bool{
			"engine.tick_ms": true, "wal.append_ms": true, "recovery.replayed_updates": true,
			"disk.read_bytes": true, "workload.gen_ms": true,
			"session.fanout_ms":           gateway,
			"session.wire_bytes_per_tick": r.Workload == "tcp-engine",
			"cluster.tick_ms":             r.Workload == "durable-cluster",
			"recovery.world_ms":           r.Workload == "durable-cluster",
			"wal.fsyncs_per_tick":         false, // no workload syncs its log per tick
		} {
			if got := r.Layers[name].Value > 0; got != want {
				t.Errorf("%s: %s = %v", r.Workload, name, r.Layers[name].Value)
			}
		}
	}
	if !strings.Contains(stdout, "tick_p50_ms") || !strings.Contains(stdout, " ms ") {
		t.Errorf("metrics are not printed by name and unit:\n%s", stdout)
	}
}

// TestContractLine checks the last line of a one-workload run.
func TestContractLine(t *testing.T) {
	code, stdout := runBench(t, "--workload", "tcp-engine", "--seed", "5", "--seconds", "0", "--trace", "1", "-scale", "smoke")
	if code != 0 {
		t.Fatalf("exit status %d\n%s", code, stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	// Every per-layer metric but the p99, which 30 ticks are too few for.
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(perLayer)-1 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d, %d metrics", line.Correct, line.Attempted, line.Failed, len(line.Metrics))
	}
	for _, d := range perLayer {
		if m, ok := line.Metrics[d.Name]; d.Name != "tick_p99_ms" && (!ok || m.Value == nil || m.Unit != d.Unit) {
			t.Errorf("result line lacks %s", d.Name)
		}
	}
}

// TestOracleIsLive makes the reference lose one update and expects the run
// to report failed_ratio 1 and exit non-zero: by byte identity on a workload
// without a gateway, by batch equality on one with.
func TestOracleIsLive(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bulk-apply", "-inject-drop-last"},
		{"-workload", "crash-recover", "-inject-drop-last"},
		{"-workload", "durable-cluster", "-inject-drop-tick", "25"},
	} {
		code, stdout := runBench(t, append(args, "-scale", "smoke", "-seconds", "0")...)
		if code == 0 {
			t.Errorf("%v: exit status 0 although the reference was made wrong\n%s", args, stdout)
		}
		if !strings.Contains(stdout, "MISMATCH") || !strings.Contains(stdout, `"correct":false`) {
			t.Errorf("%v: no mismatch reported\n%s", args, stdout)
		}
		fields := strings.Fields(stdout[strings.Index(stdout, "failed_ratio"):])
		if len(fields) < 2 || fields[1] != "1.0000" {
			t.Errorf("%v: failed_ratio is not 1\n%s", args, stdout)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "tick_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "updates_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105, 107}, verdictOK},
		{lower, steady, []float64{115, 116, 114, 115, 117}, verdictRegressed},
		{lower, steady, []float64{85, 86, 84, 85, 87}, verdictOK}, // better is never a regression
		{higher, steady, []float64{85, 86, 84, 85, 87}, verdictRegressed},
		{higher, steady, []float64{115, 116, 114, 115, 117}, verdictOK},
		{lower, []float64{80, 100, 120, 90, 110}, steady, verdictUnresolved},
		{lower, []float64{100}, []float64{120}, verdictRegressed}, // single runs: no spread to judge
	} {
		if _, _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code's metric and
// workload lists the same, and inside the limits of the benchmark contract.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	specs, err := workloads("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(file.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := file.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, w.Name, w.Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why is %d characters", sp.name, len(sp.why))
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(file.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", file.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(file.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n%+v\n%+v", file.PerLayer, strip(perLayer))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
