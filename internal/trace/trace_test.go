package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gamestate"
)

func smallZipfCfg() ZipfianConfig {
	return ZipfianConfig{
		Table:          gamestate.Table{Rows: 1000, Cols: 10, CellSize: 4, ObjSize: 512},
		UpdatesPerTick: 200,
		Ticks:          20,
		Skew:           0.8,
		Seed:           7,
	}
}

func TestZipfianConfigValidation(t *testing.T) {
	ok := smallZipfCfg()
	if _, err := NewZipfian(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*ZipfianConfig){
		func(c *ZipfianConfig) { c.UpdatesPerTick = 0 },
		func(c *ZipfianConfig) { c.Ticks = 0 },
		func(c *ZipfianConfig) { c.Skew = -0.1 },
		func(c *ZipfianConfig) { c.Skew = 1.0 },
		func(c *ZipfianConfig) { c.Table.Rows = 0 },
	}
	for i, mutate := range bad {
		cfg := smallZipfCfg()
		mutate(&cfg)
		if _, err := NewZipfian(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultZipfianConfigMatchesTable4(t *testing.T) {
	cfg := DefaultZipfianConfig()
	if cfg.UpdatesPerTick != 64_000 || cfg.Ticks != 1000 || cfg.Skew != 0.8 {
		t.Errorf("defaults %+v do not match Table 4 bold values", cfg)
	}
	if cfg.Table.NumCells() != 10_000_000 {
		t.Errorf("default cells = %d, want 10M", cfg.Table.NumCells())
	}
}

func TestZipfianDeterministicAndOrderIndependent(t *testing.T) {
	z, err := NewZipfian(smallZipfCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Access ticks out of order; results must match in-order access.
	tick5a := z.AppendTick(5, nil)
	tick3 := z.AppendTick(3, nil)
	tick5b := z.AppendTick(5, nil)
	if !reflect.DeepEqual(tick5a, tick5b) {
		t.Error("tick 5 differs between accesses")
	}
	if reflect.DeepEqual(tick5a, tick3) {
		t.Error("distinct ticks produced identical updates (suspicious)")
	}
	if len(tick5a) != 200 {
		t.Errorf("tick has %d updates, want 200", len(tick5a))
	}
	for _, c := range tick5a {
		if int(c) >= z.NumCells() {
			t.Fatalf("cell %d out of range", c)
		}
	}
}

// TestAppendTickAllocatesNothing: a tick's generator comes from the pool,
// so generating into a buffer with room allocates nothing.
func TestAppendTickAllocatesNothing(t *testing.T) {
	z, err := NewZipfian(smallZipfCfg())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 0, 200)
	tick := 0
	if n := testing.AllocsPerRun(100, func() {
		buf = z.AppendTick(tick%20, buf[:0])
		tick++
	}); n != 0 {
		t.Errorf("AppendTick allocates %v times a tick", n)
	}
}

// TestSeededRandMatchesFreshSource: a pooled generator, reseeded after any
// use, Read included, yields the stream of a fresh one with the same seed.
func TestSeededRandMatchesFreshSource(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := SeededRand(seed)
		fresh := rand.New(rand.NewSource(seed))
		got, want := make([]byte, 13), make([]byte, 13)
		rng.Read(got)
		fresh.Read(want)
		if !bytes.Equal(got, want) || rng.Int63() != fresh.Int63() || rng.Intn(1000) != fresh.Intn(1000) {
			t.Fatalf("seed %d: the pooled generator's stream differs from a fresh one's", seed)
		}
		PutRand(rng)
	}
}

func TestZipfianDifferentSeedsDiffer(t *testing.T) {
	cfgA, cfgB := smallZipfCfg(), smallZipfCfg()
	cfgB.Seed = 8
	a, _ := NewZipfian(cfgA)
	b, _ := NewZipfian(cfgB)
	if reflect.DeepEqual(a.AppendTick(0, nil), b.AppendTick(0, nil)) {
		t.Error("different seeds produced identical tick 0")
	}
}

func TestZipfianPanicsOnBadTick(t *testing.T) {
	z, _ := NewZipfian(smallZipfCfg())
	for _, tick := range []int{-1, 20, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendTick(%d) did not panic", tick)
				}
			}()
			z.AppendTick(tick, nil)
		}()
	}
}

func TestZipfianSkewShrinksDistinctSet(t *testing.T) {
	mk := func(skew float64) Stats {
		cfg := smallZipfCfg()
		cfg.Skew = skew
		cfg.UpdatesPerTick = 500
		z, err := NewZipfian(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Measure(z)
	}
	uniform, skewed := mk(0), mk(0.99)
	if skewed.DistinctCells >= uniform.DistinctCells {
		t.Errorf("skew 0.99 distinct (%d) should be below uniform (%d)",
			skewed.DistinctCells, uniform.DistinctCells)
	}
}

func TestMeasure(t *testing.T) {
	m := NewMemory(100)
	m.Append([]uint32{1, 2, 3})
	m.Append([]uint32{1, 1, 1, 1, 1})
	m.Append([]uint32{})
	st := Measure(m)
	if st.Ticks != 3 || st.Cells != 100 {
		t.Errorf("stats header wrong: %+v", st)
	}
	if st.TotalUpdates != 8 {
		t.Errorf("TotalUpdates = %d, want 8", st.TotalUpdates)
	}
	if st.MinPerTick != 0 || st.MaxPerTick != 5 {
		t.Errorf("min/max = %d/%d, want 0/5", st.MinPerTick, st.MaxPerTick)
	}
	if st.DistinctCells != 3 {
		t.Errorf("DistinctCells = %d, want 3", st.DistinctCells)
	}
	if st.AvgPerTick < 2.6 || st.AvgPerTick > 2.7 {
		t.Errorf("AvgPerTick = %v, want 8/3", st.AvgPerTick)
	}
	if st.String() == "" {
		t.Error("String() empty")
	}
}

func TestMemoryAppendCopies(t *testing.T) {
	m := NewMemory(10)
	src := []uint32{1, 2}
	m.Append(src)
	src[0] = 9
	if m.Ticks[0][0] != 1 {
		t.Error("Append aliases caller slice")
	}
}

func BenchmarkZipfianAppendTick64k(b *testing.B) {
	cfg := DefaultZipfianConfig()
	cfg.Ticks = 1 << 20
	z, err := NewZipfian(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]uint32, 0, cfg.UpdatesPerTick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = z.AppendTick(i%cfg.Ticks, buf[:0])
	}
}
