// Package telemetry is the runtime observability spine: allocation-free
// atomic counters, gauges and fixed-bucket log-scale histograms that are
// safe on the tick hot path, a lightweight span API recording typed
// operation traces into a bounded in-memory ring, and an HTTP handler
// serving Prometheus-style text exposition at /metrics, the span ring at
// /spans.json and net/http/pprof.
//
// Collection is off by default and gated by a single package-level atomic:
// every Add/Observe/Set is a load-and-branch no-op until Enable (or Serve)
// turns the pipeline on, so an uninstrumented process pays one predictable
// branch per call site and zero allocations. Instruments register in a
// package-level default registry at package init; hot paths hold the
// returned pointers, so recording is lock-free and allocation-free.
//
// This package measures a live process. internal/report is unrelated: it
// renders offline experiment figures and tables for the harness (see its
// package comment).
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// on gates all recording. Reads are always allowed.
var on atomic.Bool

// Enable turns recording on: counters, gauges, histograms and spans start
// accepting values. It is idempotent and safe from any goroutine.
func Enable() { on.Store(true) }

// Disable turns recording off again. Recorded values are retained and
// remain readable; new Add/Observe/Set calls become no-ops.
func Disable() { on.Store(false) }

// Enabled reports whether recording is on. Instrumentation sites use it to
// skip work that only feeds telemetry (e.g. a time.Now pair around an
// operation whose latency is only observed into a histogram).
func Enabled() bool { return on.Load() }

// metric is anything the registry can expose in Prometheus text format.
type metric interface {
	metricName() string
	expose(w *bufio.Writer)
}

// registry is the package-level default registry. Instruments register at
// package init (NewCounter et al. panic on duplicate names), so the
// exposition set is fixed after init and the lock is uncontended.
var registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]metric
}

func register(m metric) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byName == nil {
		registry.byName = make(map[string]metric)
	}
	name := m.metricName()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	registry.byName[name] = m
	registry.metrics = append(registry.metrics, m)
	sort.Slice(registry.metrics, func(i, j int) bool {
		return registry.metrics[i].metricName() < registry.metrics[j].metricName()
	})
}

func lookup(name string) metric {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.byName[name]
}

// WriteMetrics writes every registered instrument to w in Prometheus text
// exposition format (the /metrics payload), in name order.
func WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	registry.mu.Lock()
	metrics := append([]metric(nil), registry.metrics...)
	registry.mu.Unlock()
	for _, m := range metrics {
		m.expose(bw)
	}
	return bw.Flush()
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
// Recording is gated on Enabled; reads always return the retained value.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter with the default registry and returns it.
// It panics if name is already registered; call it from package-level var
// initialization and keep the pointer for the hot path.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. A no-op while telemetry is disabled.
func (c *Counter) Add(n uint64) {
	if !on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) expose(w *bufio.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.Value())
}

// CounterValue reads a registered counter by name; ok is false when no
// counter with that name exists. It is the in-process scrape hook the
// experiment harness uses to cross-check measured walls against what a
// /metrics scrape would report.
func CounterValue(name string) (v uint64, ok bool) {
	if c, isC := lookup(name).(*Counter); isC {
		return c.Value(), true
	}
	return 0, false
}

// Gauge is an instantaneous int64 value, safe for concurrent use.
// Recording is gated on Enabled; reads always return the retained value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge registers a gauge with the default registry and returns it. It
// panics if name is already registered.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	register(g)
	return g
}

// Set stores v. A no-op while telemetry is disabled.
func (g *Gauge) Set(v int64) {
	if !on.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta. A no-op while telemetry is disabled.
func (g *Gauge) Add(delta int64) {
	if !on.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) expose(w *bufio.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.Value())
}

// GaugeValue reads a registered gauge by name; ok is false when no gauge
// with that name exists.
func GaugeValue(name string) (v int64, ok bool) {
	if g, isG := lookup(name).(*Gauge); isG {
		return g.Value(), true
	}
	return 0, false
}

// CounterVec is a family of counters distinguished by one label (e.g.
// recovery_served_total{rung="disk"}). With creates or returns the
// per-value child under a lock; callers cache the child at setup time so
// the recording path stays lock-free and allocation-free.
type CounterVec struct {
	name, help, label string

	mu       sync.Mutex
	children map[string]*VecCounter
}

// VecCounter is one labeled child of a CounterVec.
type VecCounter struct {
	labelValue string
	v          atomic.Uint64
}

// Inc adds 1.
func (c *VecCounter) Inc() { c.Add(1) }

// Add adds n. A no-op while telemetry is disabled.
func (c *VecCounter) Add(n uint64) {
	if !on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *VecCounter) Value() uint64 { return c.v.Load() }

// NewCounterVec registers a one-label counter family with the default
// registry and returns it. It panics if name is already registered.
func NewCounterVec(name, label, help string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, children: make(map[string]*VecCounter)}
	register(v)
	return v
}

// With returns the child counter for the given label value, creating it on
// first use. Cache the result outside hot paths.
func (v *CounterVec) With(value string) *VecCounter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[value]
	if c == nil {
		c = &VecCounter{labelValue: value}
		v.children[value] = c
	}
	return c
}

// Value returns the count of the child with the given label value (0 if
// that child was never created).
func (v *CounterVec) Value(value string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[value]; c != nil {
		return c.Value()
	}
	return 0
}

// Total sums every child of the family.
func (v *CounterVec) Total() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var total uint64
	for _, c := range v.children {
		total += c.Value()
	}
	return total
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) expose(w *bufio.Writer) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	children := make([]*VecCounter, len(values))
	for i, val := range values {
		children[i] = v.children[val]
	}
	v.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name)
	for i, val := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, val, children[i].Value())
	}
}

// VecValue reads one labeled child of a registered counter family by name;
// ok is false when no family with that name exists.
func VecValue(name, labelValue string) (v uint64, ok bool) {
	if cv, isV := lookup(name).(*CounterVec); isV {
		return cv.Value(labelValue), true
	}
	return 0, false
}
