// Command cluster runs a multi-node world's whole lifecycle in one process
// to demonstrate the recovery ladder:
//
//	cluster -world-nodes 4 \
//	    -scenario hotspot -ticks 200 -updates 6400 -checkpoint-every 64
//
// runs the scenario on an in-process cluster (cluster.Cluster: every tick's
// updates routed to the owner nodes, the tick barrier, coordinated
// checkpoints at common cut ticks) with a warm standby attached to the
// even-numbered nodes, crashes it at the final tick barrier, recovers every
// partition down its ladder (standby → disk), prints which rung actually
// served each partition and why a standby fell through, and verifies the
// recovered world byte-for-byte against the single-node reference: standby
// serves the even partitions, disk the odd ones. A mismatch exits non-zero.
//
// -max-skew W (default 0, the lock-step barrier) runs the nodes ticking up
// to W apart: checkpoints become per-node and staggered (-checkpoint-every,
// no coordinated cut), the crash leaves the nodes at different ticks on
// purpose, and recovery reconstructs the consistent cut from the nodes'
// logs, re-dispatches the rolled-back ticks and verifies the same byte
// identity. Only the disk rung is proven there, so nothing is attached.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		dir      = flag.String("dir", "", "world root directory, which must not hold a world yet (empty = a temporary directory, removed at exit)")
		rows     = flag.Int("rows", 100_000, "table rows (quick-scale default)")
		cols     = flag.Int("cols", 10, "table columns")
		scenario = flag.String("scenario", "hotspot", "workload scenario, one of "+strings.Join(workload.Names(), ", "))
		ticks    = flag.Int("ticks", 200, "scenario length in ticks")
		updates  = flag.Int("updates", 6400, "baseline updates per tick")
		skew     = flag.Float64("skew", 0.8, "scenario skew in [0,1)")
		seed     = flag.Int64("seed", 1, "workload seed")
		ckptEach = flag.Int("checkpoint-every", 64, "checkpoint interval in ticks: coordinated world checkpoints at -max-skew 0, staggered per-node ones past it (0 = none before the crash)")
		shards   = flag.Int("shards", 1, "engine shards per node")
		wnodes   = flag.Int("world-nodes", 2, "in-process node count")
		maxSkew  = flag.Int("max-skew", 0, "coordination window in ticks, how far apart nodes may tick (0 = the lock-step barrier)")
		telAddr  = flag.String("telemetry-addr", "",
			"serve live telemetry (/metrics, /spans.json, /debug/pprof) on this address; "+
				"empty keeps collection off with zero overhead")
	)
	flag.Parse()
	if *telAddr != "" {
		ts, err := telemetry.Serve(*telAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ts.Close() //nolint:errcheck // process exit
		log.Printf("cluster: telemetry on http://%s/metrics", ts.Addr)
	}
	table := gamestate.Table{Rows: *rows, Cols: *cols, CellSize: 4, ObjSize: 512}
	runWorld(table, *dir, *wnodes, *scenario, *ticks, *updates, *skew, *seed, *ckptEach, *shards, *maxSkew)
}

// runWorld runs the scenario on an in-process cluster, crashes it — at the
// final tick barrier at maxSkew 0, mid-window with the nodes at different
// ticks past it — recovers it down the ladder of whatever is attached,
// re-dispatches whatever the crash rolled back (the workload is pure), and
// verifies the result byte-for-byte against the single-node reference.
func runWorld(table gamestate.Table, dir string, nodes int, scenario string, ticks, updates int,
	skew float64, seed int64, ckptEach, shards, maxSkew int) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cluster-world")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	src, err := workload.New(scenario, workload.Config{
		Table: table, UpdatesPerTick: updates, Ticks: ticks, Skew: skew, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	opts := cluster.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: nodes, Shards: shards, MaxSkew: maxSkew,
	}
	// Past the barrier only the disk rung is proven, so nothing is attached
	// and the node workers take uncoordinated cuts instead of the tick loop's
	// coordinated ones.
	if maxSkew > 0 {
		opts.CheckpointEvery = ckptEach
	}
	c, err := cluster.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	eff := len(c.Nodes())
	log.Printf("world: %d nodes over %d objects, window %d", eff, table.NumObjects(), maxSkew)

	// The standby rung mirrors the even-numbered nodes over the warm-standby
	// stream, so one run shows both rungs serving.
	var standbys []*replication.Standby
	var shippers []*replication.Shipper
	if maxSkew == 0 {
		standbys = make([]*replication.Standby, eff)
		shippers = make([]*replication.Shipper, eff)
		for i := 0; i < eff; i += 2 {
			pc, sc := net.Pipe()
			sb, err := replication.StartStandby(engine.Options{
				Table: table, Dir: fmt.Sprintf("%s/standby-%d", dir, i),
				Mode: engine.ModeCopyOnUpdate, Shards: shards,
			}, sc)
			if err != nil {
				log.Fatalf("world: standby %d: %v", i, err)
			}
			sh, err := replication.StartShipper(c.Nodes()[i].E, pc, replication.StreamOptions{MaxLagTicks: 64})
			if err != nil {
				log.Fatalf("world: shipper %d: %v", i, err)
			}
			select {
			case <-sb.Ready():
			case <-sb.Done():
				log.Fatalf("world: standby %d died during bootstrap: %v", i, sb.Err())
			}
			standbys[i], shippers[i] = sb, sh
		}
	}

	var cells []uint32
	var batch []wal.Update
	t0 := time.Now()
	for t := 0; t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := c.Tick(batch); err != nil {
			log.Fatalf("world: tick %d: %v", t, err)
		}
		if maxSkew == 0 && ckptEach > 0 && (t+1)%ckptEach == 0 && t != ticks-1 {
			if _, err := c.CheckpointWorld(); err != nil {
				log.Fatalf("world: checkpoint after tick %d: %v", t, err)
			}
		}
	}
	log.Printf("world: %d ticks in %v (coordinator blocked on node progress for %v total)",
		ticks, time.Since(t0).Round(time.Millisecond), c.BarrierWait().Round(time.Millisecond))
	for i, sh := range shippers {
		if sh == nil {
			continue
		}
		if err := sh.AwaitAck(uint64(ticks)-1, 30*time.Second); err != nil {
			log.Fatalf("world: standby %d behind at the crash: %v", i, err)
		}
		sh.Stop() //nolint:errcheck // stream teardown
	}
	applied := make([]uint64, eff)
	for i := range applied {
		applied[i] = c.AppliedTick(i)
	}
	if err := c.Crash(); err != nil { // the tick barrier at window 0, mid-window past it
		log.Fatal(err)
	}
	log.Printf("world: crash with node ticks %v", applied)

	rc, wr, err := cluster.Recover(dir, cluster.Options{
		Mode: engine.ModeCopyOnUpdate, Shards: shards, Standbys: standbys,
	})
	if err != nil {
		log.Fatalf("world: recovery: %v", err)
	}
	defer rc.Close()
	for _, sb := range standbys {
		if sb != nil {
			defer sb.Close()
		}
	}
	for i, m := range wr.Modes {
		line := fmt.Sprintf("world: partition %d recovered via %s", i, m)
		if wr.Fallbacks[i] != "" {
			line += fmt.Sprintf(" (fell through: %s)", wr.Fallbacks[i])
		}
		log.Print(line)
	}
	log.Printf("world: cut at tick %d; recovered in %v (slowest partition)", wr.Cut, wr.Wall.Round(time.Millisecond))
	for t := int(wr.WorldTick); t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := rc.Tick(batch); err != nil {
			log.Fatalf("world: re-dispatch tick %d: %v", t, err)
		}
	}
	if err := rc.Join(); err != nil {
		log.Fatal(err)
	}

	// Verify per cell against the single-node serial reference.
	got := make([]byte, table.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		log.Fatal(err)
	}
	if rc.NextTick() != uint64(ticks) || !bytes.Equal(got, referenceSlab(table, src, ticks)) {
		log.Fatalf("world: recovered state DIVERGED from the single-node reference (tick %d, want %d)",
			rc.NextTick(), ticks)
	}
	fmt.Printf("world verified: %d nodes recovered via %v, cut %d, window %d — byte-identical to the single-node reference at tick %d\n",
		eff, wr.Modes, wr.Cut, maxSkew, ticks)
}

// referenceSlab applies the scenario's first ticks ticks serially on one
// in-memory engine: the single-node state every deployment must match.
func referenceSlab(table gamestate.Table, src workload.Source, ticks int) []byte {
	ref, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	var cells []uint32
	var batch []wal.Update
	for t := 0; t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := ref.ApplyTick(batch); err != nil {
			log.Fatal(err)
		}
	}
	return append([]byte(nil), ref.Store().Slab()...)
}
