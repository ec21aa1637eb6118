package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramZeroObservations(t *testing.T) {
	s := tHistEmpty.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.BucketTotal() != 0 {
		t.Fatalf("empty histogram not empty: %+v", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", s.Mean())
	}
	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// An unobserved histogram still exposes a complete, consistent series.
	for _, want := range []string{
		"# TYPE test_hist_empty_ns histogram",
		`test_hist_empty_ns_bucket{le="+Inf"} 0`,
		"test_hist_empty_ns_sum 0",
		"test_hist_empty_ns_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxUint64, 64}, {math.MaxUint64 / 2, 63}, {1 << 63, 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramMaxBucketOverflow(t *testing.T) {
	Enable()
	defer Disable()
	h := tHistOverflow
	base := h.Snapshot()
	h.Observe(math.MaxUint64)
	h.Observe(1 << 63)
	h.Observe(0)
	s := h.Snapshot()
	if got := s.Buckets[64] - base.Buckets[64]; got != 2 {
		t.Fatalf("max bucket gained %d, want 2", got)
	}
	if got := s.Buckets[0] - base.Buckets[0]; got != 1 {
		t.Fatalf("zero bucket gained %d, want 1", got)
	}
	if s.Count-base.Count != 3 || s.BucketTotal() != s.Count {
		t.Fatalf("count %d (gained %d) / bucket total %d, want a gain of 3 and equal totals",
			s.Count, s.Count-base.Count, s.BucketTotal())
	}
	// The two huge values wrap the uint64 sum; that is documented behavior
	// for values near MaxUint64 and irrelevant for ns/bytes in practice —
	// but the counts must stay exact.
	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf(`test_hist_overflow_ns_bucket{le="+Inf"} %d`, s.Count)) {
		t.Error("exposition +Inf bucket does not hold every observation")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	Enable()
	defer Disable()
	h := tHistRace
	base := h.Snapshot()
	const (
		workers = 8
		perW    = 10_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(uint64(w*perW + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if got := s.Count - base.Count; got != workers*perW {
		t.Fatalf("count advanced by %d, want %d", got, workers*perW)
	}
	if s.BucketTotal() != s.Count {
		t.Fatalf("bucket total %d != count %d after join", s.BucketTotal(), s.Count)
	}
	wantSum := uint64(workers*perW) * uint64(workers*perW-1) / 2
	if got := s.Sum - base.Sum; got != wantSum {
		t.Fatalf("sum advanced by %d, want %d", got, wantSum)
	}
}

// TestHistogramSnapshotWhileObserving pins the weak-consistency contract:
// a snapshot taken mid-observation never shows more counted observations
// than bucketed ones (Observe bumps buckets before count, Snapshot reads
// count before buckets).
func TestHistogramSnapshotWhileObserving(t *testing.T) {
	Enable()
	defer Disable()
	h := tHistSnap
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v uint64
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v)
					v++
				}
			}
		}()
	}
	for i := 0; i < 2_000; i++ {
		s := h.Snapshot()
		if bt := s.BucketTotal(); bt < s.Count {
			close(stop)
			wg.Wait()
			t.Fatalf("iteration %d: bucket total %d < count %d", i, bt, s.Count)
		}
	}
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.BucketTotal() != s.Count {
		t.Fatalf("quiescent bucket total %d != count %d", s.BucketTotal(), s.Count)
	}
}

func TestObserveSinceZeroTime(t *testing.T) {
	Enable()
	defer Disable()
	h := tHistSince
	base := h.Snapshot().Count
	h.ObserveSince(time.Time{}) // disabled-path sentinel: must record nothing
	if h.Snapshot().Count != base {
		t.Fatal("ObserveSince on a zero time recorded an observation")
	}
	t0 := time.Now()
	h.ObserveSince(t0)
	if h.Snapshot().Count != base+1 {
		t.Fatal("ObserveSince on a real time did not record")
	}
}
