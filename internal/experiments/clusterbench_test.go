package experiments

import (
	"testing"

	"repro/internal/gamestate"
)

// TestClusterBenchMicro runs the cluster sweep on a tiny geometry: every
// (size, recovery mode) cell must recover byte-identical, migrations must
// cut at their tick boundary, the served-mode column must be honest, and the
// measured legs must be non-empty.
func TestClusterBenchMicro(t *testing.T) {
	tab := gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
	res, err := RunClusterBench(Quick, 3, ClusterBenchOptions{
		Scenarios:       []string{"migration"},
		Sizes:           []int{1, 2, 4},
		WarmTicks:       8,
		LiveTicks:       8,
		UpdatesPerTick:  300,
		Table:           &tab,
		DiskBytesPerSec: -1, // unthrottled: this is a correctness smoke
		Windows:         []int{0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 { // 3 sizes × ({disk, standby} at MaxSkew 0 + disk at 2)
		t.Fatalf("got %d rows, want 9", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Identical {
			t.Errorf("%s/nodes=%d/%s: byte identity failed", row.Scenario, row.Nodes, row.Mode)
		}
		if row.WorldTick != 16 {
			t.Errorf("%s/nodes=%d/%s: recovered to world tick %d, want 16",
				row.Scenario, row.Nodes, row.Mode, row.WorldTick)
		}
		if row.RecoveryMs <= 0 || row.CheckpointMs <= 0 || row.TickMs <= 0 {
			t.Errorf("%s/nodes=%d/%s: empty measurement: %+v", row.Scenario, row.Nodes, row.Mode, row)
		}
		if row.Effective > 1 && row.MaxSkew == 0 {
			// The cut lands at the boundary before the second-to-last tick.
			if row.MigCutTick != 14 || row.MigPauseMs <= 0 {
				t.Errorf("%s/nodes=%d/%s: migration cut at tick %d, pause %.3f ms; want tick 14 and a measured pause",
					row.Scenario, row.Nodes, row.Mode, row.MigCutTick, row.MigPauseMs)
			}
		} else if row.MigCutTick > 0 {
			t.Errorf("%s/nodes=%d/%s: a row without a migration leg reports one", row.Scenario, row.Nodes, row.Mode)
		}
	}
	if !res.Identical() {
		t.Fatal("aggregate Identical() disagrees with the rows")
	}
}
