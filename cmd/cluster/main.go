// Command cluster runs a tick-synchronized multi-node world as real
// processes over TCP: N node processes each serve a full engine over their
// partition of the object space, and one coordinator routes every tick's
// updates to the owner nodes, enforcing the tick barrier (no node applies
// tick T+1 before all acknowledged T), driving coordinated checkpoints at
// common cut ticks, and verifying the world against a locally computed
// single-node reference.
//
// Terminal 1..N (one per node):
//
//	cluster -role node -listen :7801 -dir /tmp/cluster-node-0
//	cluster -role node -listen :7802 -dir /tmp/cluster-node-1
//
// Terminal 0 (the coordinator):
//
//	cluster -role coord -nodes localhost:7801,localhost:7802 \
//	    -scenario hotspot -ticks 200 -updates 6400 -checkpoint-every 64
//
// Restarting the same command line after killing the nodes recovers the
// world: each node crash-recovers its partition on startup (image + own
// WAL) and reports its recovered tick. Nodes killed mid-run may disagree —
// an unsynced WAL tail dies with its process — so the coordinator heals
// the skew instead of refusing it: the workload is a pure function of
// (config, tick), so it re-drives each lagging node from that node's own
// recovered tick (nodes already past a tick are simply not sent it) until
// the world is aligned, then continues the scenario. Verification hashes
// each node's owned ranges against the reference; a mismatch exits
// non-zero.
//
// A third role runs the whole lifecycle in one process to demonstrate the
// recovery ladder (a warm standby needs a live primary to mirror, which the
// TCP roles' independent process restarts cannot model):
//
//	cluster -role world -world-nodes 4 \
//	    -scenario hotspot -ticks 200 -updates 6400 -checkpoint-every 64
//
// runs the scenario on an in-process cluster with a warm standby attached to
// the even-numbered nodes, crashes it at the final tick barrier, recovers
// every partition down its ladder (standby → disk), prints which rung
// actually served each partition and why a standby fell through, and
// verifies the recovered world byte-for-byte against the single-node
// reference: standby serves the even partitions, disk the odd ones.
//
// -max-skew W (default 0, the lock-step barrier) runs the world role with
// the nodes ticking up to W apart: checkpoints become per-node and staggered
// (-checkpoint-every, no coordinated cut), the crash leaves the nodes at
// different ticks on purpose, and recovery reconstructs the consistent cut
// from the logged-message store, rolls the laggards forward, re-dispatches
// the rolled-back ticks and verifies the same byte identity. Only the disk
// rung is proven there, so the role attaches no standbys.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
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
		role     = flag.String("role", "", "node | coord | world")
		listen   = flag.String("listen", ":7801", "node: address to accept the coordinator on")
		dir      = flag.String("dir", "", "node: engine directory (recovered if it holds prior state)")
		nodes    = flag.String("nodes", "", "coord: comma-separated node addresses, partition order")
		rows     = flag.Int("rows", 100_000, "table rows (quick-scale default)")
		cols     = flag.Int("cols", 10, "table columns")
		scenario = flag.String("scenario", "hotspot", "coord: workload scenario, one of "+strings.Join(workload.Names(), ", "))
		ticks    = flag.Int("ticks", 200, "coord: scenario length in ticks")
		updates  = flag.Int("updates", 6400, "coord: baseline updates per tick")
		skew     = flag.Float64("skew", 0.8, "coord: scenario skew in [0,1)")
		seed     = flag.Int64("seed", 1, "coord: workload seed")
		ckptEach = flag.Int("checkpoint-every", 64, "coord: coordinated world checkpoint interval in ticks (0 = only at the end)")
		shards   = flag.Int("shards", 1, "node: engine shards")
		mode     = flag.String("mode", "cou", "node: checkpoint method (cou | naive)")
		wnodes   = flag.Int("world-nodes", 2, "world: in-process node count")
		maxSkew  = flag.Int("max-skew", 0, "world: coordination window in ticks, how far apart nodes may tick (0 = the lock-step barrier)")
		netTO    = flag.Duration("net-timeout", 30*time.Second,
			"bound on dial/accept and on any single command-stream read; a dead peer "+
				"surfaces a typed timeout error instead of hanging (0 = wait forever)")
		telAddr = flag.String("telemetry-addr", "",
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
	switch *role {
	case "node":
		runNode(table, *listen, *dir, *shards, *mode, *netTO)
	case "coord":
		runCoord(table, *nodes, *scenario, *ticks, *updates, *skew, *seed, *ckptEach, *netTO)
	case "world":
		runWorld(table, *dir, *wnodes, *scenario, *ticks, *updates, *skew, *seed, *ckptEach, *shards, *maxSkew)
	default:
		fmt.Fprintln(os.Stderr, "cluster: -role must be node, coord or world")
		flag.Usage()
		os.Exit(2)
	}
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
	log.Printf("world: cut at tick %d; rolled forward %v ticks per node; recovered in %v (slowest partition)",
		wr.Cut, wr.RolledForward, wr.Wall.Round(time.Millisecond))
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

func runNode(table gamestate.Table, listen, dir string, shards int, mode string, netTO time.Duration) {
	if dir == "" {
		log.Fatal("cluster: -dir is required for a node")
	}
	m := engine.ModeCopyOnUpdate
	if mode == "naive" {
		m = engine.ModeNaiveSnapshot
	}
	e, pres, err := engine.RecoverFrom(engine.Options{Table: table, Dir: dir, Mode: m, Shards: shards})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	if pres.Restored || pres.NextTick > 0 {
		log.Printf("node: recovered to tick %d in %v (restore %v ∥ replay %v)",
			pres.NextTick, pres.TotalDuration.Round(time.Millisecond),
			pres.RestoreDuration.Round(time.Millisecond), pres.ReplayDuration.Round(time.Millisecond))
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("node: serving partition on %s (world tick %d)", listen, e.NextTick())
	conn, err := replication.AcceptWithin(ln, netTO)
	if err != nil {
		log.Fatal(err)
	}
	ln.Close()
	// The coordinator sends commands at tick pacing; a read stalled past
	// the idle bound means it died mid-run — fail typed instead of hanging.
	if err := cluster.ServeNode(replication.NewIdleConn(conn, netTO), e); err != nil {
		log.Fatalf("node: session failed: %v", err)
	}
	log.Printf("node: coordinator session over; world tick %d, state durable in %s", e.NextTick(), dir)
}

func runCoord(table gamestate.Table, nodeList, scenario string, ticks, updates int,
	skew float64, seed int64, ckptEach int, netTO time.Duration) {
	addrs := strings.Split(nodeList, ",")
	if nodeList == "" || len(addrs) == 0 {
		log.Fatal("cluster: -nodes is required for the coordinator")
	}
	src, err := workload.New(scenario, workload.Config{
		Table: table, UpdatesPerTick: updates, Ticks: ticks, Skew: skew, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := cluster.Uniform(table.NumObjects(), len(addrs))
	if m.NumNodes != len(addrs) {
		log.Fatalf("cluster: %d nodes given but the %d-object world partitions into %d (power-of-two spans of ≥64 objects; use exactly that many node processes)",
			len(addrs), table.NumObjects(), m.NumNodes)
	}

	remotes := make([]*cluster.RemoteNode, m.NumNodes)
	nexts := make([]uint64, m.NumNodes)
	for i, addr := range addrs {
		conn, err := replication.Dial(strings.TrimSpace(addr), netTO)
		if err != nil {
			log.Fatalf("cluster: node %d (%s): %v", i, addr, err)
		}
		// Barrier acks arrive within a tick's apply time; bound the wait so
		// a node that died mid-tick fails the run typed instead of wedging it.
		rn, next, err := cluster.Attach(replication.NewIdleConn(conn, netTO), table)
		if err != nil {
			log.Fatalf("cluster: node %d (%s): %v", i, addr, err)
		}
		remotes[i] = rn
		nexts[i] = next
	}
	start, aligned := nexts[0], nexts[0]
	for _, n := range nexts {
		if n < start {
			start = n
		}
		if n > aligned {
			aligned = n
		}
	}
	if aligned > 0 {
		log.Printf("coord: resuming a recovered world (node ticks %v)", nexts)
	}
	if start != aligned {
		// Nodes killed mid-run lose their unsynced WAL tails unevenly; the
		// deterministic workload lets lagging nodes re-apply exactly the
		// ticks they lost.
		log.Printf("coord: healing %d ticks of skew: re-driving lagging nodes from tick %d to %d",
			aligned-start, start, aligned)
	}
	if int(start) >= ticks {
		log.Fatalf("coord: world already at tick %d, scenario ends at %d", start, ticks)
	}

	perNode := make([][]wal.Update, m.NumNodes)
	var cells []uint32
	var batch []wal.Update
	cellsPerObj := uint32(table.CellsPerObject())
	barrier := time.Duration(0)
	t0 := time.Now()
	for t := int(start); t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		perNode = cluster.RouteTick(m, cellsPerObj, batch, perNode)
		b0 := time.Now()
		for i, rn := range remotes { // send to all behind this tick…
			if nexts[i] > uint64(t) {
				continue // already applied pre-crash; healing skew
			}
			if err := rn.SendTick(uint64(t), perNode[i]); err != nil {
				log.Fatalf("coord: node %d: %v", i, err)
			}
		}
		for i, rn := range remotes { // …await all of them: the barrier
			if nexts[i] > uint64(t) {
				continue
			}
			if err := rn.AwaitTick(uint64(t)); err != nil {
				log.Fatalf("coord: node %d: %v", i, err)
			}
		}
		barrier += time.Since(b0)
		if (ckptEach > 0 && (t+1)%ckptEach == 0) || t == ticks-1 {
			c0 := time.Now()
			for i, rn := range remotes {
				_, asOf, err := rn.Checkpoint(uint64(t))
				if err != nil {
					log.Fatalf("coord: node %d checkpoint: %v", i, err)
				}
				if asOf < uint64(t) {
					log.Fatalf("coord: node %d image as-of %d below cut %d", i, asOf, t)
				}
			}
			log.Printf("coord: coordinated world checkpoint, cut tick %d (%v)",
				t, time.Since(c0).Round(time.Millisecond))
		}
	}
	ran := ticks - int(start)
	log.Printf("coord: %d ticks in %v (barrier tick mean %v)",
		ran, time.Since(t0).Round(time.Millisecond),
		(barrier / time.Duration(ran)).Round(time.Microsecond))

	// Verify the world per owned range against a locally applied reference.
	slab := referenceSlab(table, src, ticks)
	sz := table.ObjSize
	for i, rn := range remotes {
		for _, r := range m.NodeRanges(i) {
			got, err := rn.HashRange(r.Lo, r.Hi)
			if err != nil {
				log.Fatalf("coord: node %d: %v", i, err)
			}
			if want := crc32.ChecksumIEEE(slab[r.Lo*sz : r.Hi*sz]); got != want {
				log.Fatalf("coord: node %d range [%d,%d) hash %08x != reference %08x — WORLD DIVERGED",
					i, r.Lo, r.Hi, got, want)
			}
		}
		rn.Bye() //nolint:errcheck // session teardown
	}
	fmt.Printf("world verified: %d nodes, %d objects, tick %d — every owned range matches the single-node reference\n",
		m.NumNodes, table.NumObjects(), ticks)
}
