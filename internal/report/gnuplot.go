package report

import (
	"fmt"
	"strings"
)

// Gnuplot renders the figure as a self-contained gnuplot script with inline
// data blocks, so `gnuplot fig.plt` reproduces the paper-style plot. logX
// and logY select logarithmic axes (the paper's Figure 2 and 6 use
// log-log).
func (f *Figure) Gnuplot(logX, logY bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	b.WriteString("set terminal pngcairo size 900,600\n")
	fmt.Fprintf(&b, "set output %q\n", sanitizeFile(f.Title)+".png")
	fmt.Fprintf(&b, "set title %q\n", f.Title)
	fmt.Fprintf(&b, "set xlabel %q\n", f.XLabel)
	fmt.Fprintf(&b, "set ylabel %q\n", f.YLabel)
	if logX {
		b.WriteString("set logscale x\n")
	}
	if logY {
		b.WriteString("set logscale y\n")
	}
	b.WriteString("set key outside right\n")
	for i, s := range f.Series {
		fmt.Fprintf(&b, "$data%d << EOD\n", i)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%g %g\n", p.X, p.Y)
		}
		b.WriteString("EOD\n")
	}
	b.WriteString("plot ")
	for i, s := range f.Series {
		if i > 0 {
			b.WriteString(", \\\n     ")
		}
		fmt.Fprintf(&b, "$data%d with linespoints title %q", i, s.Name)
	}
	b.WriteByte('\n')
	return b.String()
}

// sanitizeFile turns a title into a safe file stem.
func sanitizeFile(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == ':', r == '/', r == '(', r == ')':
			if n := b.Len(); n > 0 && b.String()[n-1] != '-' {
				b.WriteByte('-')
			}
		}
	}
	return strings.Trim(b.String(), "-")
}
