package experiments

import (
	"testing"

	"repro/internal/gamestate"
)

// TestClusterBenchMicro runs the cluster sweep on a tiny geometry: every
// (size, recovery mode) cell must recover byte-identical, migrations must
// drop zero ticks, the served-mode column must be honest, and the measured
// legs must be non-empty.
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
	if len(res.Rows) != 12 { // 3 sizes × ({disk, standby, peerram} at MaxSkew 0 + disk at 2)
		t.Fatalf("got %d rows, want 12", len(res.Rows))
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
		switch {
		case row.Mode == "peerram" && row.Effective > 1:
			if row.ReplicaKB <= 0 {
				t.Errorf("%s/nodes=%d/%s: no replica RAM reported", row.Scenario, row.Nodes, row.Mode)
			}
		case row.Mode == "peerram": // single node: no peer, disk fallback
			if row.Served != "disk" {
				t.Errorf("%s/nodes=%d/%s: served %q, want disk fallback", row.Scenario, row.Nodes, row.Mode, row.Served)
			}
		}
		if row.Effective > 1 && row.MaxSkew == 0 {
			if row.MigTicks < 0 {
				t.Errorf("%s/nodes=%d/%s: no migration leg ran", row.Scenario, row.Nodes, row.Mode)
			}
			if row.MigBlackout != 0 {
				t.Errorf("%s/nodes=%d/%s: migration blacked out %d ticks",
					row.Scenario, row.Nodes, row.Mode, row.MigBlackout)
			}
		} else if row.MigTicks >= 0 {
			t.Errorf("%s/nodes=%d/%s: a row without a migration leg reports one", row.Scenario, row.Nodes, row.Mode)
		}
	}
	if !res.Identical() {
		t.Fatal("aggregate Identical() disagrees with the rows")
	}
}
