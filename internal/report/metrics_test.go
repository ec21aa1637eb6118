package report

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Name = "naive"
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.Points) != 2 || s.Points[1] != (Point{3, 4}) {
		t.Errorf("unexpected points: %+v", s.Points)
	}
}

func TestFigureTableAlignsSeries(t *testing.T) {
	f := Figure{Title: "Fig X", XLabel: "updates", YLabel: "sec"}
	a := Series{Name: "A"}
	a.Add(1000, 0.5)
	a.Add(2000, 0.6)
	b := Series{Name: "B"}
	b.Add(2000, 0.7)
	b.Add(4000, 0.8)
	f.Add(a)
	f.Add(b)
	out := f.Table().String()
	for _, want := range []string{"updates", "A", "B", "1000", "2000", "4000", "0.5", "0.7", "0.8"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + separator + 3 x-values
	if len(lines) != 5 {
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFigureTableSortsX(t *testing.T) {
	f := Figure{XLabel: "x"}
	s := Series{Name: "s"}
	s.Add(30, 1)
	s.Add(10, 2)
	s.Add(20, 3)
	f.Add(s)
	out := f.Table().String()
	i10 := strings.Index(out, "10")
	i20 := strings.Index(out, "20")
	i30 := strings.Index(out, "30")
	if !(i10 < i20 && i20 < i30) {
		t.Errorf("x values not sorted:\n%s", out)
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{XLabel: "x,label"} // needs escaping
	s := Series{Name: `quo"te`}
	s.Add(1, 2)
	f.Add(s)
	csv := f.CSV()
	if !strings.HasPrefix(csv, `"x,label","quo""te"`) {
		t.Errorf("CSV header not escaped: %q", csv)
	}
	if !strings.Contains(csv, "\n1,2\n") {
		t.Errorf("CSV data row missing: %q", csv)
	}
}

func TestFigureStringIncludesTitle(t *testing.T) {
	f := Figure{Title: "Overhead vs updates", YLabel: "sec"}
	if out := f.String(); !strings.Contains(out, "Overhead vs updates") {
		t.Errorf("missing title: %q", out)
	}
}

func TestTextTableAlignment(t *testing.T) {
	tt := NewTextTable()
	tt.Header("method", "time")
	tt.Row("Naive-Snapshot", "0.68")
	tt.Row("COU", "0.7")
	out := tt.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator width mismatch:\n%s", out)
	}
	// Ragged rows must not panic.
	tt.Row("only-one-cell")
	_ = tt.String()
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("bad summary: %+v", s)
	}
	if s.Mean != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean)
	}
	if s.P50 != 2.5 {
		t.Errorf("P50 = %v, want 2.5", s.P50)
	}
	if z := Summarize(nil); z.Count != 0 || z.Mean != 0 {
		t.Errorf("empty summary: %+v", z)
	}
	one := Summarize([]float64{7})
	if one.P99 != 7 || one.P50 != 7 || one.Mean != 7 {
		t.Errorf("single-element summary: %+v", one)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestQuantileBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.P50 >= s.Min && s.P50 <= s.Max &&
			s.P95 >= s.P50 && s.P99 >= s.P95 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGnuplotScript(t *testing.T) {
	f := Figure{Title: "Figure 2 (full): overhead", XLabel: "updates", YLabel: "sec"}
	a := Series{Name: "Naive-Snapshot"}
	a.Add(1000, 0.00085)
	a.Add(256000, 0.001)
	f.Add(a)
	out := f.Gnuplot(true, true)
	for _, want := range []string{
		"set logscale x", "set logscale y",
		`set xlabel "updates"`, `set ylabel "sec"`,
		"$data0 << EOD", "1000 0.00085", "256000 0.001",
		`title "Naive-Snapshot"`, "with linespoints",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gnuplot script missing %q:\n%s", want, out)
		}
	}
	linear := f.Gnuplot(false, false)
	if strings.Contains(linear, "logscale") {
		t.Error("linear axes still set logscale")
	}
}

func TestSanitizeFile(t *testing.T) {
	cases := map[string]string{
		"Figure 2 (full): overhead": "figure-2-full-overhead",
		"simple":                    "simple",
		"  ":                        "",
		"A/B:C":                     "a-b-c",
	}
	for in, want := range cases {
		if got := sanitizeFile(in); got != want {
			t.Errorf("sanitizeFile(%q) = %q, want %q", in, got, want)
		}
	}
}
