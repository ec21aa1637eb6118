package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("fresh Count = %d, want 0", s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Errorf("Test(%d) = true before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(64)
	for _, i := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Test(%d) did not panic", i)
				}
			}()
			s.Test(i)
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetAllAndReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 129} {
		s := New(n)
		s.SetAll()
		if got := s.Count(); got != n {
			t.Errorf("n=%d: Count after SetAll = %d", n, got)
		}
		s.Reset()
		if got := s.Count(); got != 0 {
			t.Errorf("n=%d: Count after Reset = %d", n, got)
		}
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	s := New(100)
	s.Set(5)
	s.Set(99)
	c := s.Clone()
	s.Reset()
	if !c.Test(5) || !c.Test(99) {
		t.Error("Clone shares storage with original")
	}
	d := New(100)
	d.CopyFrom(c)
	if !d.Test(5) || !d.Test(99) || d.Count() != 2 {
		t.Error("CopyFrom did not copy contents")
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom with mismatched lengths did not panic")
		}
	}()
	d.CopyFrom(New(99))
}

func runsNaive(s *Set) int {
	runs, prev := 0, false
	for i := 0; i < s.Len(); i++ {
		cur := s.Test(i)
		if cur && !prev {
			runs++
		}
		prev = cur
	}
	return runs
}

func TestRunsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Set(i)
			}
		}
		if got, want := s.Runs(), runsNaive(s); got != want {
			t.Fatalf("trial %d (n=%d): Runs = %d, want %d", trial, n, got, want)
		}
	}
}

func TestRunsEdgeCases(t *testing.T) {
	s := New(256)
	if s.Runs() != 0 {
		t.Error("empty set has runs")
	}
	s.SetAll()
	if got := s.Runs(); got != 1 {
		t.Errorf("full set Runs = %d, want 1", got)
	}
	s.Reset()
	// A run spanning a word boundary is one run.
	for i := 60; i < 70; i++ {
		s.Set(i)
	}
	if got := s.Runs(); got != 1 {
		t.Errorf("boundary-spanning Runs = %d, want 1", got)
	}
	s.Set(0)
	if got := s.Runs(); got != 2 {
		t.Errorf("Runs = %d, want 2", got)
	}
}

func TestRankAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Set(i)
			}
		}
		r := NewRank(s)
		if r.Total() != s.Count() {
			t.Fatalf("Total = %d, want %d", r.Total(), s.Count())
		}
		count := 0
		for i := 0; i <= n; i++ {
			if got := r.Rank(i); got != count {
				t.Fatalf("n=%d Rank(%d) = %d, want %d", n, i, got, count)
			}
			if i < n && s.Test(i) {
				count++
			}
		}
	}
}

func TestRankIsSnapshot(t *testing.T) {
	s := New(64)
	s.Set(10)
	r := NewRank(s)
	s.Set(5) // mutate after snapshot
	if r.Rank(64) != 1 {
		t.Error("Rank index observed post-snapshot mutation")
	}
	if r.Test(5) {
		t.Error("Rank.Test observed post-snapshot mutation")
	}
	if !r.Test(10) {
		t.Error("Rank.Test lost snapshot bit")
	}
}

// Property: for random bit patterns, Count == number of set bits Test sees ==
// Rank(n), and Runs matches the naive scan.
func TestQuickInvariants(t *testing.T) {
	f := func(pattern []uint64, extra uint8) bool {
		n := len(pattern)*64 + int(extra%64)
		if n == 0 {
			n = 1
		}
		s := New(n)
		for i := 0; i < n; i++ {
			if len(pattern) > 0 && pattern[(i/64)%len(pattern)]&(1<<(uint(i)%64)) != 0 {
				s.Set(i)
			}
		}
		set := 0
		for i := 0; i < n; i++ {
			if s.Test(i) {
				set++
			}
		}
		r := NewRank(s)
		return set == s.Count() &&
			r.Rank(n) == s.Count() &&
			s.Runs() == runsNaive(s)
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkRuns(b *testing.B) {
	s := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		s.Set(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Runs()
	}
}

func BenchmarkRankBuild(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewRank(s)
	}
}
