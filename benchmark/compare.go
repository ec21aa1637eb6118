package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // b is worse than a by more than the bound
	verdictUnresolved = "unresolved" // a set's own spread is wider than the bound
)

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs: end-to-end numbers never come from a traced run.
func (f *resultFile) values(workload, name string) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// judge compares two sets of values of one metric. worse is how much worse
// the median of b is than the median of a, as a share of a's median.
func judge(d metricDef, a, b []float64) (medA, medB, worse float64, verdict string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
		if d.Better == "higher" {
			worse = -worse
		}
	}
	for _, set := range [][]float64{a, b} {
		if spread, ok := quartileSpread(set); ok && spread > d.Bound {
			return medA, medB, worse, verdictUnresolved
		}
	}
	if worse > d.Bound {
		return medA, medB, worse, verdictRegressed
	}
	return medA, medB, worse, verdictOK
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// relative difference, the bound and the verdict, and reports whether any
// pair regressed or could not be resolved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	for _, f := range []*resultFile{a, b} {
		fmt.Fprintf(w, "%s: seed %d, %d runs, %d cpus, GOMAXPROCS %d, %s, scale %s x%.2f, %vs\n",
			f.Commit, f.Seed, len(f.Runs), f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Scale, f.ScaleFactor, f.Seconds)
	}
	specs, err := workloads("full")
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\truns\tverdict")
	defs := append([]metricDef{}, endToEnd...)
	defs = append(defs,
		metricDef{Name: "tick_p99_ms", Unit: "ms", Better: "lower", Bound: p99Bound},
		metricDef{Name: "failed_ratio", Unit: "ratio", Better: "lower"})
	for _, sp := range specs {
		for _, d := range defs {
			va, vb := a.values(sp.name, d.Name), b.values(sp.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, worse, verdict := judge(d, va, vb)
			if d.Name == "failed_ratio" { // bound 0, absolute
				worse, verdict = medB-medA, verdictOK
				if medB > medA {
					verdict = verdictRegressed
				}
			}
			if d.Name != "tick_p99_ms" { // shown, not gated: see p99Bound
				bad = bad || verdict != verdictOK
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%d/%d\t%s\n",
				sp.name, d.Name, d.Unit, medA, medB, 100*worse, 100*d.Bound, len(va), len(vb), verdict)
		}
	}
	return bad, tw.Flush()
}
