package trace

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gamestate"
	"repro/internal/zipf"
)

// Zipfian generates the synthetic update traces of Section 4.4 / Table 4:
// each update picks a row and a column independently from the same Zipf
// distribution with skew alpha. The trace is lazy — ticks are materialized
// on demand from deterministic per-tick substreams, so a 256,000-updates-
// per-tick, 1000-tick trace occupies no memory — and deterministic: tick t
// always yields the same updates regardless of access order, which is what
// makes log replay during recovery reproduce the exact pre-crash state.
type Zipfian struct {
	table   gamestate.Table
	updates int
	ticks   int
	skew    float64
	seed    int64
	rowGen  *zipf.Generator
	colGen  *zipf.Generator
}

// ZipfianConfig configures a Zipfian trace. The zero value of Skew is valid
// (uniform); Table, UpdatesPerTick and Ticks must be positive.
type ZipfianConfig struct {
	Table          gamestate.Table
	UpdatesPerTick int
	Ticks          int
	Skew           float64
	Seed           int64
}

// DefaultZipfianConfig returns the bold defaults of Table 4: 10M cells
// (1M x 10), 1000 ticks, 64,000 updates per tick, skew 0.8.
func DefaultZipfianConfig() ZipfianConfig {
	return ZipfianConfig{
		Table:          gamestate.Default(),
		UpdatesPerTick: 64_000,
		Ticks:          1000,
		Skew:           0.8,
		Seed:           1,
	}
}

// NewZipfian builds a lazy Zipfian trace.
func NewZipfian(cfg ZipfianConfig) (*Zipfian, error) {
	if err := cfg.Table.Validate(); err != nil {
		return nil, err
	}
	if cfg.UpdatesPerTick <= 0 {
		return nil, fmt.Errorf("trace: updates per tick must be positive, got %d",
			cfg.UpdatesPerTick)
	}
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("trace: ticks must be positive, got %d", cfg.Ticks)
	}
	if cfg.Skew < 0 || cfg.Skew >= 1 {
		return nil, fmt.Errorf("trace: skew must be in [0,1), got %v", cfg.Skew)
	}
	return &Zipfian{
		table:   cfg.Table,
		updates: cfg.UpdatesPerTick,
		ticks:   cfg.Ticks,
		skew:    cfg.Skew,
		seed:    cfg.Seed,
		rowGen:  zipf.New(cfg.Table.Rows, cfg.Skew),
		colGen:  zipf.New(cfg.Table.Cols, cfg.Skew),
	}, nil
}

// NumTicks implements Source.
func (z *Zipfian) NumTicks() int { return z.ticks }

// NumCells implements Source.
func (z *Zipfian) NumCells() int { return z.table.NumCells() }

// Table returns the underlying table geometry.
func (z *Zipfian) Table() gamestate.Table { return z.table }

// tickSeed derives a per-tick RNG seed from the base seed using the
// SplitMix64 finalizer, so consecutive ticks get uncorrelated streams.
func (z *Zipfian) tickSeed(t int) int64 {
	x := uint64(z.seed)*0x9E3779B97F4A7C15 + uint64(t+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1) // keep non-negative for rand.NewSource clarity
}

// seeded holds generators for SeededRand to reseed: a fresh generator's
// source is 4.9 KB, allocated once per generated tick otherwise. Sources may
// be generated from concurrently, hence a pool.
var seeded = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// SeededRand returns a generator whose stream is that of
// rand.New(rand.NewSource(seed)), taken from a pool; PutRand gives it back.
func SeededRand(seed int64) *rand.Rand {
	rng := seeded.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// PutRand returns a generator from SeededRand to the pool; the caller must
// not use it afterwards.
func PutRand(rng *rand.Rand) { seeded.Put(rng) }

// AppendTick implements Source.
func (z *Zipfian) AppendTick(t int, buf []uint32) []uint32 {
	if t < 0 || t >= z.ticks {
		panic(fmt.Sprintf("trace: tick %d out of range [0,%d)", t, z.ticks))
	}
	rng := SeededRand(z.tickSeed(t))
	defer PutRand(rng)
	cols := z.table.Cols
	for i := 0; i < z.updates; i++ {
		row := z.rowGen.Next(rng)
		col := z.colGen.Next(rng)
		buf = append(buf, uint32(row*cols+col))
	}
	return buf
}

var _ Source = (*Zipfian)(nil)
