// Package report provides the small reporting toolkit the experiment
// harness uses to regenerate the paper's figures and tables as text: labeled
// series (one line per algorithm), aligned text tables, CSV emission,
// gnuplot scripts, and summary statistics over per-tick measurements.
//
// The package is scoped to offline experiment figure rendering: it runs
// after a benchmark finishes and formats what the harness measured. Live
// runtime observability — counters, gauges, histograms and spans scraped
// from a running process — is internal/telemetry's job; the experiment
// harness cross-checks the two against each other (a bench's measured walls
// must agree with the telemetry the instrumented code recorded).
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Figure is a set of series sharing axes — one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Add appends a series to the figure.
func (f *Figure) Add(s Series) { f.Series = append(f.Series, s) }

// Table renders the figure as an aligned text table with one row per x value
// and one column per series, in the style the paper's plots report.
func (f *Figure) Table() *TextTable {
	t := NewTextTable()
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	t.Header(header...)
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = formatNum(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		t.Row(row...)
	}
	return t
}

// CSV renders the figure as comma-separated values with a header line.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	t := f.Table()
	for _, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(cell))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the figure with its title.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (y: %s)\n", f.Title, f.YLabel)
	b.WriteString(f.Table().String())
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func formatNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 && v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000 && v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// TextTable is a simple aligned text table.
type TextTable struct {
	header []string
	rows   [][]string
}

// NewTextTable returns an empty table.
func NewTextTable() *TextTable { return &TextTable{} }

// Header sets the column headers.
func (t *TextTable) Header(cols ...string) { t.header = cols }

// Row appends a row.
func (t *TextTable) Row(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with aligned columns.
func (t *TextTable) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.header != nil {
		measure(t.header)
	}
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	if t.header != nil {
		writeRow(t.header)
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", widths[i]))
		}
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Summary holds order statistics of a sample.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P95, P99  float64
}

// Summarize computes summary statistics. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   quantile(sorted, 0.50),
		P95:   quantile(sorted, 0.95),
		P99:   quantile(sorted, 0.99),
	}
}

// quantile returns the q-quantile of a sorted sample using the
// nearest-rank-with-interpolation method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
