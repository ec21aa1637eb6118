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
	"repro/internal/peerram"
	"repro/internal/replication"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The recovery-mode ladder's crash-equivalence harness: for the same
// workload at 1-, 2- and 4-node sizes, a world recovered through every rung
// — peer-RAM restore, warm-standby promotion, the disk pipeline, and the
// auto ladder over all three — must be byte-identical per cell to a
// never-crashed single-node serial run, and WorldRecovery must name the
// rung that actually served each partition. The disk rung also runs at
// MaxSkew = 2 — the one rung proven there — where the crash drops each
// node's backlog and the rolled-back ticks are re-dispatched.
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

	type cell struct {
		mode   RecoveryMode
		window int
	}
	cells4 := []cell{{RecoveryDisk, 0}, {RecoveryStandby, 0}, {RecoveryPeerRAM, 0}, {RecoveryAuto, 0}, {RecoveryDisk, 2}}
	for _, nodes := range []int{1, 2, 4} {
		for _, cl := range cells4 {
			mode, window := cl.mode, cl.window
			name := fmt.Sprintf("nodes=%d/mode=%s", nodes, mode)
			if window > 0 {
				name += fmt.Sprintf("/maxskew=%d", window)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				withMesh := mode == RecoveryPeerRAM || mode == RecoveryAuto
				withStandby := mode == RecoveryStandby || mode == RecoveryAuto

				var mesh *peerram.Mesh
				opts := Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: nodes, MaxSkew: window}
				if withMesh {
					mesh = peerram.NewMesh(nodes, peerram.Options{})
					opts.PeerRAM = mesh
				}
				c, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(c.Nodes()); got != nodes {
					t.Fatalf("built %d nodes, want %d", got, nodes)
				}

				// The standby rung mirrors each node over the warm-standby
				// stream into its own directory.
				var standbys []*replication.Standby
				var shippers []*replication.Shipper
				if withStandby {
					for i, n := range c.Nodes() {
						pc, sc := net.Pipe()
						sb, err := replication.StartStandby(engine.Options{
							Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
						}, sc)
						if err != nil {
							t.Fatal(err)
						}
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
				for i, sh := range shippers {
					if err := sh.AwaitAck(ticks-1, 20*time.Second); err != nil {
						t.Fatalf("shipper %d: %v", i, err)
					}
					sh.Stop() //nolint:errcheck // stream teardown
				}
				if err := c.Crash(); err != nil { // at MaxSkew = 0, a tick barrier
					t.Fatal(err)
				}

				rc, wr, err := Recover(dir, Options{
					Mode: engine.ModeCopyOnUpdate, PeerRAM: mesh,
					RecoveryMode: mode, Standbys: standbys,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				for _, sb := range standbys {
					defer sb.Close()
				}
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

				// The rung that served must be the one the mode promises.
				// A single node has no peer replica, so the peer-RAM rung
				// must fall through with a recorded reason.
				for i, served := range wr.Modes {
					expect := mode
					switch {
					case mode == RecoveryPeerRAM && nodes == 1:
						expect = RecoveryDisk
					case mode == RecoveryAuto && nodes == 1:
						expect = RecoveryStandby
					case mode == RecoveryAuto:
						expect = RecoveryPeerRAM
					}
					if served != expect {
						t.Fatalf("node %d served by %v (fallbacks %q), want %v", i, served, wr.Fallbacks[i], expect)
					}
					if expect != mode && mode != RecoveryAuto && !strings.Contains(wr.Fallbacks[i], "replica") {
						t.Fatalf("node %d fell back without naming the replica failure: %q", i, wr.Fallbacks[i])
					}
					if served == RecoveryStandby {
						if wr.PerNode[i].NextTick != ticks {
							t.Fatalf("node %d standby promotion at tick %d, want %d", i, wr.PerNode[i].NextTick, ticks)
						}
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
							t.Fatalf("cell %d differs after %v recovery: %x != %x (owner %d)",
								cell, mode, g, w, rc.Routing().Current().Owner(cell/tab.CellsPerObject()))
						}
					}
				}

				// A recovered world must still be live: one more (empty) tick
				// applies on every rung's engines (promoted standbys included).
				if err := rc.Tick(nil); err != nil {
					t.Fatalf("tick after %v recovery: %v", mode, err)
				}
			})
		}
	}
}

// TestRecoveryLadderFallsBackToDiskOnDeadHolder arms the chaos fault that
// kills the replica-holding peer mid-restore: the peer-RAM rung must fail
// cleanly, the ladder must land on disk, and the world must still be
// byte-identical to the never-crashed run.
func TestRecoveryLadderFallsBackToDiskOnDeadHolder(t *testing.T) {
	tab := gamestate.Table{Rows: 4096, Cols: 8, CellSize: 4, ObjSize: 512}
	const ticks, perTick = 16, 300
	src, err := workload.New("flashcrowd", workload.Config{
		Table: tab, UpdatesPerTick: perTick, Ticks: ticks, Skew: 0.8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
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

	dir := t.TempDir()
	mesh := peerram.NewMesh(2, peerram.Options{})
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2, PeerRAM: mesh})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		cells, batch = workload.TickUpdates(src, i, cells, batch)
		if err := c.Tick(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Node 0's holder dies a quarter of the way through serving the image.
	mesh.FailRestoreAfter(0, int64(tab.StateBytes())/4)
	rc, wr, err := Recover(dir, Options{
		Mode: engine.ModeCopyOnUpdate, PeerRAM: mesh, RecoveryMode: RecoveryPeerRAM,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if !mesh.Injected(0) {
		t.Fatal("restore fault did not fire")
	}
	if wr.Modes[0] != RecoveryDisk {
		t.Fatalf("node 0 served by %v, want disk fallback", wr.Modes[0])
	}
	if !strings.Contains(wr.Fallbacks[0], "replica") {
		t.Fatalf("node 0 fallback does not name the dead holder: %q", wr.Fallbacks[0])
	}
	if wr.Modes[1] != RecoveryPeerRAM {
		t.Fatalf("node 1 served by %v, want peerram (per-partition fall-through)", wr.Modes[1])
	}
	got := make([]byte, tab.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("world after fallback recovery diverged from the never-crashed reference")
	}
}
