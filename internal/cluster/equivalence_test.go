package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The cluster crash-equivalence harness: for real workload scenarios at
// 1-, 2- and 4-node cluster sizes, a world that ticks through a coordinated
// checkpoint, crashes, and recovers every partition in parallel must be
// byte-identical per cell to a never-crashed single-node serial run of the
// same scenario — the cluster twin of the engine's shard-equivalence and
// scenariobench identity checks. The migration scenario additionally runs
// with a live range migration mid-stream, so the moved range's install
// record goes through crash recovery too. The window is one more input: at
// MaxSkew = 2 (no migration — it is refused there) the crash drops each
// node's backlog, recovery reconstructs the cut and rolls the laggards
// forward, and the resumed coordinator re-dispatches the rolled-back ticks.

// scenarioBatch materializes one workload tick in the canonical
// (tick, position) value encoding every cell-for-cell harness shares.
func scenarioBatch(src workload.Source, t int, cells []uint32, batch []wal.Update) ([]uint32, []wal.Update) {
	return workload.TickUpdates(src, t, cells, batch)
}

func TestClusterCrashEquivalence(t *testing.T) {
	tab := gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
	const ticks, perTick, warm = 20, 400, 8
	for _, scenario := range []string{"migration", "flashcrowd"} {
		src, err := workload.New(scenario, workload.Config{
			Table: tab, UpdatesPerTick: perTick, Ticks: ticks, Skew: 0.8, Seed: 1,
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
			cells, batch = scenarioBatch(src, i, cells, batch)
			if err := ref.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
		}
		want := append([]byte(nil), ref.Store().Slab()...)
		ref.Close()

		for _, cell := range []struct{ nodes, window int }{{1, 0}, {2, 0}, {4, 0}, {2, 2}, {4, 2}} {
			nodes, window := cell.nodes, cell.window
			name := fmt.Sprintf("%s/nodes=%d", scenario, nodes)
			if window > 0 {
				name += fmt.Sprintf("/maxskew=%d", window)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: nodes, MaxSkew: window})
				if err != nil {
					t.Fatal(err)
				}
				migrate := scenario == "migration" && nodes > 1 && window == 0
				for i := 0; i < ticks; i++ {
					if migrate && i == warm+2 {
						// Move half of node 0's first range to the last node
						// while the scenario's hot window drifts across it.
						r := c.Routing().Current().NodeRanges(0)[0]
						mid := r.Lo + (r.Hi-r.Lo)/2
						if _, err := c.StartMigration(r.Lo, mid, nodes-1); err != nil {
							t.Fatal(err)
						}
					}
					if migrate && i == warm+6 {
						rep, err := c.FinishMigration()
						if err != nil {
							t.Fatal(err)
						}
						if rep.BlackoutTicks != 0 {
							t.Fatalf("migration blacked out %d ticks", rep.BlackoutTicks)
						}
					}
					cells, batch = scenarioBatch(src, i, cells, batch)
					if err := c.Tick(batch); err != nil {
						t.Fatal(err)
					}
					if i == warm-1 {
						man, err := c.CheckpointWorld()
						if err != nil {
							t.Fatal(err)
						}
						if len(man.NodeCuts) != len(c.Nodes()) {
							t.Fatalf("coordinated cut recorded %d node cuts, want %d", len(man.NodeCuts), len(c.Nodes()))
						}
						for _, cut := range man.NodeCuts {
							if cut.AsOfTick != uint64(warm-1) {
								t.Fatalf("node %d image as-of %d, want the cut %d", cut.Node, cut.AsOfTick, warm-1)
							}
						}
					}
				}
				// At MaxSkew = 0 every node is at the tick barrier; past it the
				// crash leaves each node wherever its backlog had got to.
				if err := c.Crash(); err != nil {
					t.Fatal(err)
				}

				rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate})
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				if window == 0 && wr.WorldTick != ticks {
					t.Fatalf("recovered to world tick %d, want %d", wr.WorldTick, ticks)
				}
				for i := int(wr.WorldTick); i < ticks; i++ {
					cells, batch = scenarioBatch(src, i, cells, batch)
					if err := rc.Tick(batch); err != nil {
						t.Fatal(err)
					}
				}
				if err := rc.Join(); err != nil {
					t.Fatal(err)
				}
				if len(wr.PerNode) != len(rc.Nodes()) {
					t.Fatalf("recovery reported %d nodes, cluster has %d", len(wr.PerNode), len(rc.Nodes()))
				}
				got := make([]byte, tab.StateBytes())
				if err := rc.ReadWorld(got); err != nil {
					t.Fatal(err)
				}
				// Per-cell identity against the never-crashed reference.
				if !bytes.Equal(got, want) {
					for cell := 0; cell < tab.NumCells(); cell++ {
						g := got[cell*4 : cell*4+4]
						w := want[cell*4 : cell*4+4]
						if !bytes.Equal(g, w) {
							t.Fatalf("cell %d differs after recovery: %x != %x (owner %d)",
								cell, g, w, rc.Routing().Current().Owner(cell/tab.CellsPerObject()))
						}
					}
				}
			})
		}
	}
}
