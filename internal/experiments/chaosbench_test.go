package experiments

import "testing"

// TestChaosBenchQuick runs one scenario through all four fault sites at
// two seeds and requires every cell to survive or degrade cleanly — never
// fail — with byte identity everywhere and the disk schedules actually
// firing (their budgets land inside the first family-A flush by
// construction).
func TestChaosBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaosbench drives engines, a replication pair and a cluster per cell")
	}
	rep, err := RunChaosBench(Quick, ChaosBenchOptions{
		Scenarios: []string{"hotspot"},
		Seeds:     []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 8 {
		t.Fatalf("got %d cells, want 8 (1 scenario × 4 sites × 2 seeds)", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Outcome == "failed" {
			t.Errorf("%s/%s/seed=%d FAILED: %s", c.Scenario, c.Site, c.Seed, c.Detail)
			continue
		}
		if !c.Identical {
			t.Errorf("%s/%s/seed=%d outcome %s but not identical", c.Scenario, c.Site, c.Seed, c.Outcome)
		}
		if c.Site == "disk" && c.Outcome != "degraded" {
			t.Errorf("disk seed=%d outcome %s, want degraded (budget is below one image flush)", c.Seed, c.Outcome)
		}
	}
	if rep.Degraded() == 0 {
		t.Fatal("no cell degraded: the schedules never injected a fault")
	}
}

// TestChaosBenchReplayable pins the determinism contract for what the
// harness reports, not only for where the first fault lands: the same
// (seed, site) schedule kills the device once, at the same byte offset
// (Detail carries the budget), with the same outcome, on every rerun —
// however the parallel flushers race to the dead device afterwards.
func TestChaosBenchReplayable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full disk-site cells")
	}
	opts := ChaosBenchOptions{Scenarios: []string{"hotspot"}, Sites: []string{"disk"}, Seeds: []int64{7}}
	a, err := RunChaosBench(Quick, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaosBench(Quick, opts)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Cells[0], b.Cells[0]
	if ca.Outcome != cb.Outcome || ca.Faults != cb.Faults || ca.Detail != cb.Detail {
		t.Fatalf("replay diverged: %+v vs %+v", ca, cb)
	}
	if ca.Outcome != "degraded" || ca.Faults != 1 {
		t.Fatalf("disk cell = %+v, want degraded by exactly one fault (the device's death)", ca)
	}
}
