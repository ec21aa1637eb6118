// Example cluster walks the multi-node deployment layer end to end, in one
// process: a 2-node tick-synchronized world running a real workload
// scenario, a coordinated world checkpoint at a common cut tick, a live
// partition migration that moves a hot sub-range between nodes without
// dropping a tick, a crash, and whole-world parallel recovery — verified
// byte-for-byte against a single-node serial run of the same scenario.
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	table := gamestate.Table{Rows: 100_000, Cols: 10, CellSize: 4, ObjSize: 512} // quick scale: 4 MB world
	const ticks, updates = 48, 6400
	src, err := workload.New("migration", workload.Config{
		Table: table, UpdatesPerTick: updates, Ticks: ticks, Skew: 0.8, Seed: 1,
	})
	check(err)
	batchAt := func(t int, cells []uint32, batch []wal.Update) ([]uint32, []wal.Update) {
		return workload.TickUpdates(src, t, cells, batch)
	}

	dir, err := os.MkdirTemp("", "cluster-example")
	check(err)
	defer os.RemoveAll(dir)

	// 1. A 2-node world: each node is a full engine owning half the object
	//    space; every Tick is a barrier — both nodes apply T before T+1.
	c, err := cluster.New(cluster.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2,
	})
	check(err)
	m := c.Routing().Current()
	fmt.Printf("world: %d objects over %d nodes, node 0 owns %v\n",
		m.Objects, m.NumNodes, m.NodeRanges(0))

	var cells []uint32
	var batch []wal.Update
	tick := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			cells, batch = batchAt(tick, cells, batch)
			check(c.Tick(batch))
			tick++
		}
	}
	run(16)

	// 2. Coordinated world checkpoint: both nodes checkpoint as-of the same
	//    cut tick; the manifest records each node's cut, all at that tick.
	ck0 := time.Now()
	man, err := c.CheckpointWorld()
	check(err)
	fmt.Printf("coordinated checkpoint: node cuts %+v (%v)\n",
		man.NodeCuts, time.Since(ck0).Round(time.Millisecond))

	// 3. Live migration: the scenario's hot window is drifting across the
	//    whole space — move the first quarter of node 0's range to node 1
	//    between two ticks. The range is copied out of node 0 and installed
	//    on node 1 as one durable record; ownership cuts over at the tick
	//    boundary, and no tick is dropped.
	run(12)
	r := m.NodeRanges(0)[0]
	rep, err := c.Migrate(r.Lo, r.Lo+(r.Hi-r.Lo)/4, 1)
	check(err)
	fmt.Printf("migration: [%d,%d) node %d → %d, cut at tick %d, pause %v\n",
		rep.Lo, rep.Hi, rep.From, rep.To, rep.CutTick, rep.Pause.Round(time.Microsecond))
	run(ticks - tick)

	// 4. Crash at a tick barrier, then whole-world recovery: every node
	//    restores its newest image and replays its own WAL concurrently;
	//    the world is back when the slowest node is.
	check(c.Close())
	rc, wr, err := cluster.Recover(dir, cluster.Options{Mode: engine.ModeCopyOnUpdate})
	check(err)
	defer rc.Close()
	fmt.Printf("whole-world recovery: %d nodes to tick %d in %v\n",
		len(rc.Nodes()), wr.WorldTick, wr.Wall.Round(time.Millisecond))
	for i, pr := range wr.PerNode {
		fmt.Printf("  node %d: restore %v ∥ replay %v (%d ticks replayed)\n",
			i, pr.RestoreDuration.Round(time.Millisecond),
			pr.ReplayDuration.Round(time.Millisecond), pr.ReplayedTicks)
	}

	// 5. The proof: the recovered, migrated, twice-owned world is
	//    byte-identical per cell to a single node that never crashed.
	ref, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	check(err)
	for t := 0; t < ticks; t++ {
		cells, batch = batchAt(t, cells, batch)
		check(ref.ApplyTick(batch))
	}
	world := make([]byte, table.StateBytes())
	check(rc.ReadWorld(world))
	if !bytes.Equal(world, ref.Store().Slab()) {
		log.Fatal("recovered world DIVERGES from the single-node reference")
	}
	ref.Close()
	fmt.Println("recovered world is byte-identical to the never-crashed single-node reference")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
