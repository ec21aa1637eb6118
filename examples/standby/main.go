// Standby walkthrough: the full primary → crash → promotion arc of the
// replication subsystem, in one process over an in-memory pipe.
//
// A primary engine serves ticks while a shipper streams its state to a warm
// standby: first a bootstrap checkpoint snapshot, then every committed tick
// tail-followed from the primary's own write-ahead log. When the primary
// dies mid-flight, the standby seals the stream at the last complete tick,
// promotes in well under a tick, and is byte-identical to what cold crash
// recovery of the primary's directory reconstructs — which this example
// also runs, to show what the warm path replaced.
//
//	go run ./examples/standby
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro"
)

func main() {
	pdir, err := os.MkdirTemp("", "standby-primary")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "standby-replica")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(sdir)

	table := repro.Table{Rows: 8_192, Cols: 8, CellSize: 4, ObjSize: 512}
	opts := func(dir string) repro.EngineOptions {
		return repro.EngineOptions{Table: table, Dir: dir, Mode: repro.ModeCopyOnUpdate, Shards: 2}
	}
	batch := func(tick int) []repro.Update {
		return []repro.Update{
			{Cell: uint32(tick % table.NumCells()), Value: uint32(tick)*2 + 1},
			{Cell: uint32((tick * 131) % table.NumCells()), Value: uint32(tick) * 3},
		}
	}

	// Step 1: a primary with some history — the standby will bootstrap
	// from a snapshot of this, not from tick zero.
	primary, err := repro.OpenEngine(opts(pdir))
	if err != nil {
		log.Fatal(err)
	}
	const warmTicks, liveTicks = 120, 80
	for tick := 0; tick < warmTicks; tick++ {
		if err := primary.ApplyTick(batch(tick)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("primary warmed up: %d ticks applied\n", warmTicks)

	// Step 2: attach a warm standby over a pipe (two processes would use
	// TCP — see cmd/replicate). The shipper snapshots the live primary and
	// tail-follows its WAL; the standby persists the snapshot as its own
	// first checkpoint image, so it is durable from the moment it is warm.
	pconn, sconn := net.Pipe()
	standby, err := repro.StartStandby(opts(sdir), sconn)
	if err != nil {
		log.Fatal(err)
	}
	shipper, err := repro.StartPrimary(primary, pconn, repro.ShipperOptions{MaxLagTicks: 8})
	if err != nil {
		log.Fatal(err)
	}
	select {
	case <-standby.Ready():
	case <-standby.Done():
		log.Fatalf("standby died during bootstrap: %v", standby.Err())
	}
	st := standby.Stats()
	fmt.Printf("standby bootstrapped: %d KB snapshot as of tick %d\n",
		st.SnapshotBytes/1024, st.StartTick)

	// Step 3: the primary keeps serving; every tick streams to the standby
	// within the replay-lag budget.
	for tick := warmTicks; tick < warmTicks+liveTicks; tick++ {
		if err := primary.ApplyTick(batch(tick)); err != nil {
			log.Fatal(err)
		}
	}
	last := primary.NextTick() - 1
	if err := shipper.AwaitAck(last, 30*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replicated live: standby acknowledged through tick %d\n", last)

	// Step 4: the primary dies. The standby seals the stream at the last
	// complete tick and promotes — this is the entire warm failover path.
	crash := time.Now()
	shipper.Stop() //nolint:errcheck // the deliberate crash
	promoted, err := standby.Promote()
	if err != nil {
		log.Fatal(err)
	}
	takeover := time.Since(crash)
	defer promoted.Close()
	fmt.Printf("PROMOTED in %v: standby is primary at tick %d\n",
		takeover.Round(time.Microsecond), promoted.NextTick())

	// Step 5: what did the warm path replace? Cold crash recovery of the
	// primary's directory (restore newest image + replay the log) — run it
	// and compare both the wall time and every byte of state.
	if err := primary.Close(); err != nil {
		log.Fatal(err)
	}
	coldStart := time.Now()
	cold, pres, err := repro.RecoverEngine(opts(pdir))
	if err != nil {
		log.Fatal(err)
	}
	coldTime := time.Since(coldStart)
	defer cold.Close()
	if !bytes.Equal(promoted.Store().Slab(), cold.Store().Slab()) {
		log.Fatal("promoted standby is NOT byte-identical to cold recovery")
	}
	fmt.Printf("cold recovery of the same state: %v (restore %v ∥ replay %v)\n",
		coldTime.Round(time.Microsecond),
		pres.RestoreDuration.Round(time.Microsecond), pres.ReplayDuration.Round(time.Microsecond))
	fmt.Printf("verified: promoted standby byte-identical to cold recovery, takeover %v vs %v\n",
		takeover.Round(time.Microsecond), coldTime.Round(time.Microsecond))

	// The promoted engine serves immediately.
	if err := promoted.ApplyTick(batch(int(promoted.NextTick()))); err != nil {
		log.Fatal(err)
	}
	fmt.Println("promoted engine is ticking — failover complete")
}
