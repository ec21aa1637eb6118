// Package workload generates the MMO-specific update scenarios the paper's
// evaluation leaves out. The paper drives every experiment with a single
// synthetic Zipf trace (Section 4.4, Table 4), but which checkpoint method
// wins — and how recovery time scales — depends heavily on workload shape:
// the scalable-state-management survey (arXiv:1505.01864) catalogs login
// storms, flash crowds and zone migration as the load patterns that actually
// stress MMO state stores, and ReStore (arXiv:2203.01107) shows recovery
// results shift materially with skew and churn. Each scenario here is a
// deterministic, seedable trace.Source with a name, so the same stream can
// drive the sharded engine, the parallel recovery pipeline, the replication
// shipper and the recoverytime identity sweep.
//
// Determinism contract: a Source is a pure function of (Config, tick).
// Every scenario derives a per-tick RNG from (seed, scenario-name hash,
// tick) through the SplitMix64 finalizer — the same recipe trace.Zipfian
// uses — so tick t always yields the same updates in the same order no
// matter which ticks were generated before it or how many times it is
// asked for. That property is what makes log replay, cross-shard
// byte-identity checks, and baseline-comparable benchmarks possible.
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/gamestate"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Source is a named, deterministic update trace. It extends trace.Source —
// everything that consumes a trace (the engine experiments, the simulator)
// consumes a workload scenario unchanged.
type Source interface {
	trace.Source
	// Name identifies the scenario (registry key, bench report key).
	Name() string
}

// Config parameterizes a scenario. UpdatesPerTick is the scenario's
// *baseline* rate: bursty scenarios (loginstorm, raid, flashcrowd) exceed it
// on spike ticks and quiescent stays far below it, by design.
type Config struct {
	// Table is the state geometry the cell indices address.
	Table gamestate.Table
	// UpdatesPerTick is the baseline update rate.
	UpdatesPerTick int
	// Ticks is the trace length.
	Ticks int
	// Skew is the Zipf parameter in [0,1) used by skew-driven scenarios.
	Skew float64
	// Seed selects the deterministic stream.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Table.Validate(); err != nil {
		return err
	}
	if c.UpdatesPerTick <= 0 {
		return fmt.Errorf("workload: updates per tick must be positive, got %d", c.UpdatesPerTick)
	}
	if c.Ticks <= 0 {
		return fmt.Errorf("workload: ticks must be positive, got %d", c.Ticks)
	}
	if c.Skew < 0 || c.Skew >= 1 {
		return fmt.Errorf("workload: skew must be in [0,1), got %v", c.Skew)
	}
	return nil
}

// builders maps scenario names to constructors. Mixed composites live here
// too, so Names/New cover everything recoverytime sweeps. Populated in
// init (newMixed calls New, so a literal map would be an init cycle).
var builders map[string]func(Config) (Source, error)

func init() {
	builders = map[string]func(Config) (Source, error){
		"hotspot":    newHotspot,
		"quiescent":  newQuiescent,
		"raid":       newRaid,
		"loginstorm": newLoginStorm,
		"migration":  newMigration,
		"flashcrowd": newFlashCrowd,
		"mixed":      newMixed,
	}
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TickUpdates materializes tick t of a source as engine updates with the
// canonical bench/equivalence value encoding: Value = t*1_000_003 + i for
// the i-th update of the tick, so in-tick ordering is observable in the
// slab and two independently driven runs (a cluster and its single-node
// reference, a bench and its baseline) are comparable cell for cell.
// cells and batch are reused across calls.
func TickUpdates(src Source, t int, cells []uint32, batch []wal.Update) ([]uint32, []wal.Update) {
	cells = src.AppendTick(t, cells[:0])
	batch = batch[:0]
	for i, c := range cells {
		batch = append(batch, wal.Update{Cell: c, Value: uint32(t)*1_000_003 + uint32(i)})
	}
	return cells, batch
}

// New builds the named scenario.
func New(name string, cfg Config) (Source, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown scenario %q (have %v)", name, Names())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return b(cfg)
}

// base carries the common Source plumbing: name, geometry, and the
// deterministic per-tick RNG derivation.
type base struct {
	name  string
	cells int
	ticks int
	seed  int64
	salt  uint64 // FNV-1a of the scenario name: distinct streams per scenario
}

func newBase(name string, cfg Config) base {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base{
		name:  name,
		cells: cfg.Table.NumCells(),
		ticks: cfg.Ticks,
		seed:  cfg.Seed,
		salt:  h.Sum64(),
	}
}

// Name implements Source.
func (b *base) Name() string { return b.name }

// NumTicks implements trace.Source.
func (b *base) NumTicks() int { return b.ticks }

// NumCells implements trace.Source.
func (b *base) NumCells() int { return b.cells }

// rng returns tick t's RNG: SplitMix64-finalized mix of (seed, salt, t), the
// same substream recipe as trace.Zipfian so consecutive ticks — and sibling
// scenarios at the same seed — get uncorrelated streams. It comes from
// trace.SeededRand's pool: the caller gives it back with trace.PutRand.
func (b *base) rng(t int) *rand.Rand {
	if t < 0 || t >= b.ticks {
		panic(fmt.Sprintf("workload: %s tick %d out of range [0,%d)", b.name, t, b.ticks))
	}
	x := uint64(b.seed)*0x9E3779B97F4A7C15 + b.salt + uint64(t+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return trace.SeededRand(int64(x >> 1))
}
