// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the real gateway → cluster → engine → WAL/disk → recovery
// stack, five bounded end-to-end metrics, and a per-layer budget traced from
// outside the program. README.md in this directory is the manual.
//
//	go -C benchmark run . -seed 1                    every workload, every metric
//	go -C benchmark run . -workload bulk-apply -trace 1
//	go -C benchmark run . -runs 5 -out a.json        a set of runs to compare
//	go -C benchmark run . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// runTimeout bounds one invocation's child processes; the contract allows a
// run 180 seconds.
const runTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	runs     int
	out      string
	traceOut string
	workDir  string
	compare  bool
	child    bool
	dropLast bool
	dropTick int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line JSON result")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds the live ticks of a run are paced over")
	fs.IntVar(&o.trace, "trace", 0, "1: also run traced and report the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke for a seconds-long run of every code path")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "write every run's result to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "directory for spans.json and layers.json (default: under the work directory)")
	fs.StringVar(&o.workDir, "workdir", "", "directory for state files (default: .bench_tmp beside BENCHMARK.json)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result")
	fs.BoolVar(&o.dropLast, "inject-drop-last", false, "test hook: the reference loses one update of the last tick, so the run must fail")
	fs.IntVar(&o.dropTick, "inject-drop-tick", -1, "test hook: the reference loses one update of this tick, so the run must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		var regressed bool
		if regressed, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			return 1
		}
	case o.child:
		err = runChild(o, stdout)
	default:
		var ok bool
		if ok, err = runParent(o, stdout, stderr); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runChild runs one workload in this process, which exists for nothing else:
// a fresh heap, and a peak RSS that is the workload's own.
func runChild(o options, stdout io.Writer) error {
	runtime.GOMAXPROCS(procs())
	// Start with nothing left to write back: what an earlier run left dirty
	// is not this run's to sync.
	syscall.Sync()
	res, err := runWorkload(runConfig{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Trace: o.trace != 0, WorkDir: o.workDir, TraceOut: o.traceOut,
		DropTick: o.dropTick, DropLast: o.dropLast,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawn runs one workload in a child process and returns its result.
func spawn(ctx context.Context, o options, seed int64, seconds float64, trace bool, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-scale", o.scale, "-workdir", o.workDir,
		"-inject-drop-tick", fmt.Sprint(o.dropTick)}
	if trace {
		args = append(args, "-trace", "1", "-trace-out", o.traceOut)
	}
	if o.dropLast {
		args = append(args, "-inject-drop-last")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s seed %d: %w", o.workload, seed, err)
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("workload %s seed %d: result: %w", o.workload, seed, err)
	}
	return &res, nil
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed        int64        `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Scale       string       `json:"scale"`
	ScaleFactor float64      `json:"scale_factor"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	GoVersion   string       `json:"go_version"`
	Commit      string       `json:"commit"`
	Runs        []*runResult `json:"runs"`
}

// runParent runs the chosen workloads, each run in its own child process,
// prints every metric by name and unit, and reports whether all were correct.
func runParent(o options, stdout, stderr io.Writer) (bool, error) {
	specs, err := workloads(o.scale)
	if err != nil {
		return false, err
	}
	if o.workload != "" {
		sp, err := workloadNamed(o.scale, o.workload)
		if err != nil {
			return false, err
		}
		specs = []spec{sp}
	}
	cleanup, err := o.prepareDirs()
	if err != nil {
		return false, err
	}
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout*time.Duration(len(specs)*o.runs))
	defer cancel()

	file := resultFile{
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale, ScaleFactor: scaleFactor,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	ok := true
	var last *runResult
	for _, sp := range specs {
		o.workload = sp.name
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			seconds := o.seconds
			if o.trace != 0 {
				seconds /= 2 // the untraced and the traced run share the time
			}
			res, err := spawn(ctx, o, seed, seconds, false, stderr)
			if err != nil {
				return false, err
			}
			file.Runs = append(file.Runs, res)
			printRun(stdout, res)
			ok = ok && res.Correct && res.Failed == 0
			last = res
			if o.trace != 0 {
				traced, err := spawn(ctx, o, seed, seconds, true, stderr)
				if err != nil {
					return false, err
				}
				// The traced run differs from the untraced one by the spans,
				// the wrappers and the registry being on, and by nothing else.
				base, with := res.Metrics["tick_p50_ms"].Value, traced.Metrics["tick_p50_ms"].Value
				traced.Layers["telemetry.overhead_ratio"] = metric{Value: with/base - 1, Unit: "ratio"}
				file.Runs = append(file.Runs, traced)
				printRun(stdout, traced)
				ok = ok && traced.Correct && traced.Failed == 0
				last = traced
			}
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if len(specs) == 1 && o.runs == 1 {
		if err := printContractLine(stdout, last, o.scale == "full"); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// prepareDirs settles where state files and traces go and returns what
// removes the state files again. The default is inside the checkout, beside
// BENCHMARK.json, which is on the file system the checkout is on.
func (o *options) prepareDirs() (func(), error) {
	if o.workDir == "" {
		root, err := checkoutRoot()
		if err != nil {
			return nil, err
		}
		o.workDir = filepath.Join(root, ".bench_tmp")
	}
	abs, err := filepath.Abs(o.workDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, err
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(abs, "trace")
	}
	o.workDir, err = os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	return func() {
		os.RemoveAll(o.workDir)
		syscall.Sync() // the deletes are this run's cost, not the next one's
	}, nil
}

// checkoutRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory; pass -workdir")
		}
		dir = parent
	}
}

// commit is the checkout's commit, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, r *runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s: %d live ticks, %d recoveries, attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, mode, r.LiveTicks, r.Recoveries, r.Attempted, r.Failed, r.Correct)
	if r.Mismatch != "" {
		fmt.Fprintf(w, "  MISMATCH: %s\n", r.Mismatch)
	}
	for _, group := range []map[string]metric{r.Metrics, r.Layers} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			fmt.Fprintf(w, "  %-30s %16.4f %-6s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " (%d samples)", m.Samples)
			}
			fmt.Fprintln(w, repeats(name))
		}
	}
}

// printContractLine ends the output with the one JSON object the benchmark
// contract asks for: every end-to-end metric of an untraced run, or every
// per-layer metric of a traced one. Only a full-scale run must have them all:
// the smoke scale is too short for a p99.
func printContractLine(w io.Writer, r *runResult, complete bool) error {
	defs, from := endToEnd, r.Metrics
	if r.Traced {
		defs, from = perLayer, r.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if !r.Correct {
		line.Failed = r.Attempted
	}
	for _, d := range defs {
		m, ok := from[d.Name]
		if !ok && complete {
			return fmt.Errorf("workload %s did not report %s", r.Workload, d.Name)
		}
		if ok {
			line.Metrics[d.Name] = value{m.Value, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
