package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/gamestate"
	"repro/internal/workload"
)

func testConfig() workload.Config {
	return workload.Config{
		Table:          gamestate.Table{Rows: 2048, Cols: 8, CellSize: 4, ObjSize: 512},
		UpdatesPerTick: 256,
		Ticks:          32,
		Skew:           0.8,
		Seed:           7,
	}
}

// TestScenarioDeterminism is the satellite property test: every registered
// scenario is a pure function of (Config, tick) — two independently built
// instances produce identical streams, and a single instance produces the
// same stream regardless of the order ticks are asked for.
func TestScenarioDeterminism(t *testing.T) {
	cfg := testConfig()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			a, err := workload.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ticks := a.NumTicks()
			if ticks != cfg.Ticks {
				t.Fatalf("NumTicks = %d, want %d", ticks, cfg.Ticks)
			}
			// Forward pass on a, recorded.
			want := make([][]uint32, ticks)
			for i := 0; i < ticks; i++ {
				want[i] = a.AppendTick(i, nil)
			}
			// Fresh instance, reverse order: both the instance identity and
			// the access order must be irrelevant.
			for i := ticks - 1; i >= 0; i-- {
				got := b.AppendTick(i, nil)
				if len(got) != len(want[i]) {
					t.Fatalf("tick %d: %d updates on rerun, want %d", i, len(got), len(want[i]))
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Fatalf("tick %d update %d: %d on rerun, want %d", i, j, got[j], want[i][j])
					}
				}
			}
			// And the same instance re-asked must agree with itself.
			for _, i := range []int{0, ticks / 2, ticks - 1} {
				again := a.AppendTick(i, nil)
				if len(again) != len(want[i]) {
					t.Fatalf("tick %d: same instance re-ask changed length", i)
				}
				for j := range again {
					if again[j] != want[i][j] {
						t.Fatalf("tick %d: same instance re-ask changed update %d", i, j)
					}
				}
			}
		})
	}
}

// TestScenarioBounds: every update addresses a valid cell, every tick is
// non-empty, and the scenario reports the configured geometry.
func TestScenarioBounds(t *testing.T) {
	cfg := testConfig()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			src, err := workload.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if src.Name() != name {
				t.Fatalf("Name() = %q, want %q", src.Name(), name)
			}
			if src.NumCells() != cfg.Table.NumCells() {
				t.Fatalf("NumCells = %d, want %d", src.NumCells(), cfg.Table.NumCells())
			}
			var buf []uint32
			for i := 0; i < src.NumTicks(); i++ {
				buf = src.AppendTick(i, buf[:0])
				if len(buf) == 0 {
					t.Fatalf("tick %d is empty", i)
				}
				for j, c := range buf {
					if int(c) >= src.NumCells() {
						t.Fatalf("tick %d update %d: cell %d out of range [0,%d)",
							i, j, c, src.NumCells())
					}
				}
			}
		})
	}
}

// TestScenarioAppendExtends: AppendTick must append to buf, not clobber it.
func TestScenarioAppendExtends(t *testing.T) {
	cfg := testConfig()
	for _, name := range workload.Names() {
		src, err := workload.New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pre := []uint32{42, 43}
		got := src.AppendTick(0, append([]uint32(nil), pre...))
		if len(got) <= len(pre) || got[0] != 42 || got[1] != 43 {
			t.Fatalf("%s: AppendTick did not extend the buffer", name)
		}
	}
}

// constSrc emits the same cell n times every tick — a distinguishable dye
// for the mixer boundary tests.
type constSrc struct {
	cell  uint32
	cells int
	ticks int
	n     int
}

func (c constSrc) Name() string  { return fmt.Sprintf("const-%d", c.cell) }
func (c constSrc) NumTicks() int { return c.ticks }
func (c constSrc) NumCells() int { return c.cells }
func (c constSrc) AppendTick(t int, buf []uint32) []uint32 {
	if t < 0 || t >= c.ticks {
		panic("constSrc: tick out of range")
	}
	for i := 0; i < c.n; i++ {
		buf = append(buf, c.cell)
	}
	return buf
}

// TestMixerPhaseBoundaries is the satellite property test for the mixer:
// phase boundaries are exact in tick counts — the last tick of phase i
// draws only from phase i's parts and the first tick of phase i+1 only
// from phase i+1's.
func TestMixerPhaseBoundaries(t *testing.T) {
	a := constSrc{cell: 0, cells: 16, ticks: 5, n: 10}
	b := constSrc{cell: 1, cells: 16, ticks: 7, n: 10}
	m, err := workload.NewMixer("two-phase",
		workload.Phase{Ticks: 5, Parts: []workload.Part{{Source: a, Weight: 1}}},
		workload.Phase{Ticks: 7, Parts: []workload.Part{{Source: b, Weight: 1}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTicks() != 12 {
		t.Fatalf("NumTicks = %d, want 12", m.NumTicks())
	}
	for tick := 0; tick < 12; tick++ {
		want := uint32(0)
		if tick >= 5 {
			want = 1
		}
		out := m.AppendTick(tick, nil)
		if len(out) != 10 {
			t.Fatalf("tick %d: %d updates, want 10", tick, len(out))
		}
		for _, c := range out {
			if c != want {
				t.Fatalf("tick %d: update from cell %d, want only cell %d (exact boundary at tick 5)",
					tick, c, want)
			}
		}
	}
	for _, bad := range []int{-1, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendTick(%d) did not panic", bad)
				}
			}()
			m.AppendTick(bad, nil)
		}()
	}
}

// TestMixerWeights: a weight takes the rounded prefix of each part's tick,
// and blended parts concatenate in declaration order.
func TestMixerWeights(t *testing.T) {
	a := constSrc{cell: 2, cells: 16, ticks: 4, n: 10}
	b := constSrc{cell: 3, cells: 16, ticks: 4, n: 8}
	m, err := workload.NewMixer("blend",
		workload.Phase{Ticks: 4, Parts: []workload.Part{
			{Source: a, Weight: 0.5},
			{Source: b, Weight: 0.25},
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := m.AppendTick(0, nil)
	if len(out) != 7 { // 0.5*10 = 5 from a, 0.25*8 = 2 from b
		t.Fatalf("blended tick has %d updates, want 7", len(out))
	}
	for i, c := range out {
		want := uint32(2)
		if i >= 5 {
			want = 3
		}
		if c != want {
			t.Fatalf("update %d = cell %d, want %d", i, c, want)
		}
	}
}

// TestMixerValidation: the constructor rejects malformed schedules.
func TestMixerValidation(t *testing.T) {
	ok := constSrc{cell: 0, cells: 16, ticks: 8, n: 4}
	cases := []struct {
		name   string
		phases []workload.Phase
	}{
		{"no phases", nil},
		{"zero ticks", []workload.Phase{{Ticks: 0, Parts: []workload.Part{{Source: ok, Weight: 1}}}}},
		{"no parts", []workload.Phase{{Ticks: 2}}},
		{"weight zero", []workload.Phase{{Ticks: 2, Parts: []workload.Part{{Source: ok, Weight: 0}}}}},
		{"weight above one", []workload.Phase{{Ticks: 2, Parts: []workload.Part{{Source: ok, Weight: 1.5}}}}},
		{"part too short", []workload.Phase{{Ticks: 9, Parts: []workload.Part{{Source: ok, Weight: 1}}}}},
		{"cells mismatch", []workload.Phase{{Ticks: 2, Parts: []workload.Part{
			{Source: ok, Weight: 1},
			{Source: constSrc{cell: 0, cells: 32, ticks: 8, n: 4}, Weight: 1},
		}}}},
	}
	for _, c := range cases {
		if _, err := workload.NewMixer(c.name, c.phases...); err == nil {
			t.Errorf("%s: NewMixer succeeded, want error", c.name)
		}
	}
}

// TestRegistry: unknown names and invalid configs are rejected; Names is
// sorted and covers at least the six scenarios the bench sweeps.
func TestRegistry(t *testing.T) {
	if _, err := workload.New("nope", testConfig()); err == nil {
		t.Error("unknown scenario accepted")
	}
	bad := testConfig()
	bad.UpdatesPerTick = 0
	if _, err := workload.New("hotspot", bad); err == nil {
		t.Error("invalid config accepted")
	}
	names := workload.Names()
	if len(names) < 6 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	for _, want := range []string{"hotspot", "loginstorm", "raid", "migration", "flashcrowd", "quiescent"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %q missing from registry", want)
		}
	}
}
