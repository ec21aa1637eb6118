package telemetry

import (
	"strings"
	"testing"
)

// testMetrics are registered once for the whole test binary; individual
// tests diff values instead of resetting (the registry is append-only by
// design).
var (
	tCounter = NewCounter("test_counter_total", "test counter")
	tGauge   = NewGauge("test_gauge", "test gauge")
	tVec     = NewCounterVec("test_vec_total", "site", "test vec")
	tVecSum  = NewCounterVec("test_vec_total_sum", "k", "sum test")

	tHistEmpty    = NewHistogram("test_hist_empty_ns", "empty histogram") // never observed
	tHistOverflow = NewHistogram("test_hist_overflow_ns", "overflow histogram")
	tHistRace     = NewHistogram("test_hist_race_ns", "concurrency histogram")
	tHistSnap     = NewHistogram("test_hist_snap_ns", "snapshot consistency histogram")
	tHistSince    = NewHistogram("test_hist_since_ns", "ObserveSince histogram")
)

func TestGateBlocksRecording(t *testing.T) {
	Disable()
	base, vecBase := tCounter.Value(), tVec.Value("a")
	tCounter.Inc()
	tCounter.Add(41)
	tGauge.Set(99)
	tVec.With("a").Inc()
	if got := tCounter.Value(); got != base {
		t.Fatalf("disabled counter moved: %d -> %d", base, got)
	}
	if got := tVec.Value("a"); got != vecBase {
		t.Fatalf("disabled vec child moved: %d -> %d", vecBase, got)
	}

	Enable()
	defer Disable()
	tCounter.Inc()
	tCounter.Add(41)
	tGauge.Set(99)
	tGauge.Add(1)
	tVec.With("a").Add(2)
	if got := tCounter.Value(); got != base+42 {
		t.Fatalf("enabled counter: got %d, want %d", got, base+42)
	}
	if tGauge.Value() != 100 {
		t.Fatalf("enabled gauge: got %d, want 100", tGauge.Value())
	}
	if v, ok := VecValue("test_vec_total", "a"); !ok || v != vecBase+2 {
		t.Fatalf("VecValue = %d, %v; want %d, true", v, ok, vecBase+2)
	}
}

func TestRegistryLookups(t *testing.T) {
	if _, ok := CounterValue("test_counter_total"); !ok {
		t.Fatal("CounterValue should find test_counter_total")
	}
	if _, ok := GaugeValue("test_gauge"); !ok {
		t.Fatal("GaugeValue should find test_gauge")
	}
	if _, ok := CounterValue("no_such_metric"); ok {
		t.Fatal("CounterValue found a metric that does not exist")
	}
	if _, ok := GaugeValue("test_counter_total"); ok {
		t.Fatal("GaugeValue should reject a counter")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test_counter_total", "dup")
}

func TestExpositionFormat(t *testing.T) {
	Enable()
	defer Disable()
	tCounter.Inc()
	tGauge.Set(7)
	tVec.With("b").Inc()
	tVec.With("a").Inc()

	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_counter_total counter",
		"# TYPE test_gauge gauge",
		"test_gauge 7",
		"# TYPE test_vec_total counter",
		`test_vec_total{site="a"}`,
		`test_vec_total{site="b"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Label values sort within a family, names sort across families.
	if strings.Index(out, `site="a"`) > strings.Index(out, `site="b"`) {
		t.Error("vec children not sorted by label value")
	}
}

func TestVecTotal(t *testing.T) {
	Enable()
	defer Disable()
	base := tVecSum.Total()
	tVecSum.With("x").Add(3)
	tVecSum.With("y").Add(4)
	if got := tVecSum.Total() - base; got != 7 {
		t.Fatalf("Total advanced by %d, want 7", got)
	}
}
