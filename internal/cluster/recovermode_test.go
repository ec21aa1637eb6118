package cluster

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The recovery ladder's crash-equivalence harness: for the same workload at
// 1-, 2- and 4-node sizes, a world recovered with each set of attachments —
// nothing (the disk pipeline) and warm standbys — must be byte-identical per
// cell to a never-crashed single-node serial run, and WorldRecovery must name
// the rung that actually served each partition: the fastest one attached.
// The bare world also runs at MaxSkew = 2 — the disk rung is the one proven
// there — where the crash drops each node's backlog and the rolled-back
// ticks are re-dispatched.
func TestRecoveryModeEquivalence(t *testing.T) {
	tab := gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
	const ticks, perTick, warm = 20, 400, 8
	src, err := workload.New("flashcrowd", workload.Config{
		Table: tab, UpdatesPerTick: perTick, Ticks: ticks, Skew: 0.8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Never-crashed single-node serial reference.
	ref, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var cells []uint32
	var batch []wal.Update
	for i := 0; i < ticks; i++ {
		cells, batch = workload.TickUpdates(src, i, cells, batch)
		if err := ref.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte(nil), ref.Store().Slab()...)
	ref.Close()

	// A cell is named after the rung it attaches ("disk": nothing).
	type cell struct {
		name        string
		withStandby bool
		window      int
	}
	ladders := []cell{{"disk", false, 0}, {"standby", true, 0}, {"disk", false, 2}}
	for _, nodes := range []int{1, 2, 4} {
		for _, cl := range ladders {
			withStandby, window := cl.withStandby, cl.window
			name := fmt.Sprintf("nodes=%d/mode=%s", nodes, cl.name)
			if window > 0 {
				name += fmt.Sprintf("/maxskew=%d", window)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: nodes, MaxSkew: window})
				if err != nil {
					t.Fatal(err)
				}
				if got := len(c.Nodes()); got != nodes {
					t.Fatalf("built %d nodes, want %d", got, nodes)
				}
				var standbys []*replication.Standby
				var shippers []*replication.Shipper
				if withStandby {
					standbys, shippers = attachStandbys(t, c)
				}

				for i := 0; i < ticks; i++ {
					cells, batch = workload.TickUpdates(src, i, cells, batch)
					if err := c.Tick(batch); err != nil {
						t.Fatal(err)
					}
					if i == warm-1 {
						if _, err := c.CheckpointWorld(); err != nil {
							t.Fatal(err)
						}
					}
				}
				stopShippers(t, shippers, ticks-1)
				if err := c.Crash(); err != nil { // at MaxSkew = 0, a tick barrier
					t.Fatal(err)
				}

				rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, Standbys: standbys})
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				if window == 0 && wr.WorldTick != ticks {
					t.Fatalf("recovered to world tick %d, want %d", wr.WorldTick, ticks)
				}
				for i := int(wr.WorldTick); i < ticks; i++ {
					cells, batch = workload.TickUpdates(src, i, cells, batch)
					if err := rc.Tick(batch); err != nil {
						t.Fatal(err)
					}
				}
				if err := rc.Join(); err != nil {
					t.Fatal(err)
				}

				// The attached rung serves, with nothing to report.
				expect := RecoveryDisk
				if withStandby {
					expect = RecoveryStandby
				}
				for i, served := range wr.Modes {
					if served != expect || wr.Fallbacks[i] != "" {
						t.Fatalf("node %d served by %v (fallbacks %q), want %v with none", i, served, wr.Fallbacks[i], expect)
					}
					if served == RecoveryStandby && wr.PerNode[i].NextTick != ticks {
						t.Fatalf("node %d standby promotion at tick %d, want %d", i, wr.PerNode[i].NextTick, ticks)
					}
				}

				// Per-cell identity against the never-crashed reference.
				got := make([]byte, tab.StateBytes())
				if err := rc.ReadWorld(got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					for cell := 0; cell < tab.NumCells(); cell++ {
						g := got[cell*4 : cell*4+4]
						w := want[cell*4 : cell*4+4]
						if !bytes.Equal(g, w) {
							t.Fatalf("cell %d differs after %s recovery: %x != %x (owner %d)",
								cell, cl.name, g, w, rc.Routing().Current().Owner(cell/tab.CellsPerObject()))
						}
					}
				}

				// A recovered world must still be live: one more (empty) tick
				// applies on every rung's engines (promoted standbys included).
				if err := rc.Tick(nil); err != nil {
					t.Fatalf("tick after %s recovery: %v", cl.name, err)
				}
			})
		}
	}
}

// attachStandbys mirrors every node of c over the warm-standby stream into
// its own directory; the standbys close with the test.
func attachStandbys(t *testing.T, c *Cluster) ([]*replication.Standby, []*replication.Shipper) {
	t.Helper()
	var standbys []*replication.Standby
	var shippers []*replication.Shipper
	for i, n := range c.Nodes() {
		pc, sc := net.Pipe()
		sb, err := replication.StartStandby(engine.Options{
			Table: c.Table(), Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
		}, sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sb.Close() })
		sh, err := replication.StartShipper(n.E, pc, replication.StreamOptions{MaxLagTicks: 64})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-sb.Ready():
		case <-sb.Done():
			t.Fatalf("standby %d died during bootstrap: %v", i, sb.Err())
		}
		standbys, shippers = append(standbys, sb), append(shippers, sh)
	}
	return standbys, shippers
}

// stopShippers waits until every standby has acknowledged tick last, then
// ends the streams.
func stopShippers(t *testing.T, shippers []*replication.Shipper, last uint64) {
	t.Helper()
	for i, sh := range shippers {
		if err := sh.AwaitAck(last, 20*time.Second); err != nil {
			t.Fatalf("shipper %d: %v", i, err)
		}
		sh.Stop() //nolint:errcheck // stream teardown
	}
}

// TestRecoveryLadderFallsBackToDiskOnClosedStandby: an attached rung that
// fails falls through for its own partition only. Node 0's standby is closed
// before Recover, so its promotion fails: node 0 must land on disk with a
// note naming the standby and exactly one recovery_fallthrough_total{standby}
// increment, node 1 must still be promoted, and the world must be
// byte-identical to the never-crashed run.
func TestRecoveryLadderFallsBackToDiskOnClosedStandby(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	fallthroughs := func() uint64 {
		v, ok := telemetry.VecValue("recovery_fallthrough_total", "standby")
		if !ok {
			t.Fatal("counter family recovery_fallthrough_total is not registered")
		}
		return v
	}
	tab := testTable()
	const ticks, perTick = 16, 300
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	standbys, shippers := attachStandbys(t, c)
	for i := 0; i < ticks; i++ {
		if err := c.Tick(testBatch(tab, i, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	stopShippers(t, shippers, ticks-1)
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := standbys[0].Close(); err != nil {
		t.Fatal(err)
	}

	fell := fallthroughs()
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, Standbys: standbys})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if wr.Modes[0] != RecoveryDisk {
		t.Fatalf("node 0 served by %v, want disk fallback", wr.Modes[0])
	}
	if !strings.Contains(wr.Fallbacks[0], "standby") {
		t.Fatalf("node 0 fallback does not name the standby: %q", wr.Fallbacks[0])
	}
	if d := fallthroughs() - fell; d != 1 {
		t.Errorf("recovery_fallthrough_total{rung=standby} rose by %d, want 1", d)
	}
	if wr.Modes[1] != RecoveryStandby || wr.Fallbacks[1] != "" {
		t.Fatalf("node 1 served by %v (fallbacks %q), want standby (per-partition fall-through)", wr.Modes[1], wr.Fallbacks[1])
	}
	if wr.WorldTick != ticks || !bytes.Equal(world(t, rc), referenceWorld(t, tab, ticks, perTick)) {
		t.Fatalf("world after fallback recovery at tick %d diverged from the never-crashed reference", wr.WorldTick)
	}
}

// TestRecoverReportsOnlyAttachedRungs: a rung that was not attached is not
// tried, so a plain world (no mesh, no standbys) recovers through the disk
// pipeline with no fall-through to report — no note in Fallbacks and no
// recovery_fallthrough_total increment for the absent rungs.
func TestRecoverReportsOnlyAttachedRungs(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	counter := func(family, rung string) uint64 {
		v, ok := telemetry.VecValue(family, rung)
		if !ok {
			t.Fatalf("counter family %s is not registered", family)
		}
		return v
	}

	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Tick(testBatch(tab, i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	fellStandby := counter("recovery_fallthrough_total", "standby")
	servedDisk := counter("recovery_served_total", "disk")
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i, note := range wr.Fallbacks {
		if wr.Modes[i] != RecoveryDisk || note != "" {
			t.Errorf("node %d served by %v with fallbacks %q, want disk with none", i, wr.Modes[i], note)
		}
	}
	if d := counter("recovery_fallthrough_total", "standby") - fellStandby; d != 0 {
		t.Errorf("recovery_fallthrough_total{rung=standby} rose by %d with no standby attached", d)
	}
	if d := counter("recovery_served_total", "disk") - servedDisk; d != 2 {
		t.Errorf("recovery_served_total{rung=disk} rose by %d, want 2", d)
	}
}
