package experiments

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/gamestate"
)

// TestScenarioBenchMicro runs the full three-phase cell pipeline (warm
// checkpointing engine → live replicated phase → crash → promote → cold
// pipeline recovery) at a tiny geometry, for one scenario, and checks the
// sweep's invariants: identity holds, the replay axis is pinned, the standby
// promotes at the crash tick, and the sweep covers every requested cell.
func TestScenarioBenchMicro(t *testing.T) {
	tab := gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
	res, err := RunScenarioBench(Quick, 3, ScenarioBenchOptions{
		Scenarios:       []string{"migration"},
		Methods:         []engine.Mode{engine.ModeCopyOnUpdate},
		ShardCounts:     []int{1, 2},
		WarmTicks:       8,
		LiveTicks:       6,
		UpdatesPerTick:  300,
		Table:           &tab,
		DiskBytesPerSec: -1, // unthrottled: this is a correctness smoke
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if !c.Identical {
			t.Errorf("%s/%s/shards=%d: byte identity failed", c.Scenario, c.Method, c.Shards)
		}
		if c.ReplayedTicks != 6 {
			t.Errorf("%s shards=%d: replayed %d ticks, want 6 (replay axis not pinned)",
				c.Scenario, c.Shards, c.ReplayedTicks)
		}
		if c.StandbyTicks != 14 {
			t.Errorf("%s shards=%d: standby promoted at tick %d, want 14",
				c.Scenario, c.Shards, c.StandbyTicks)
		}
		if c.UpdatesApplied <= 0 || c.TakeoverMs <= 0 || c.RecoveryMs <= 0 {
			t.Errorf("%s shards=%d: empty measurement: %+v", c.Scenario, c.Shards, c)
		}
	}
}
