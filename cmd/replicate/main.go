// Command replicate runs the live-replication pair as two real processes:
// a primary that serves a synthetic tick workload while shipping its WAL to
// one standby, and a standby that mirrors it and takes over when the
// primary exits.
//
// Terminal A (primary: runs the workload, ships, then "dies"):
//
//	replicate -role primary -listen :7777 -dir /tmp/repl-primary \
//	    -ticks 500 -updates 6400 -shards 4
//
// Terminal B (standby: bootstraps, mirrors, promotes on primary death):
//
//	replicate -role standby -connect localhost:7777 -dir /tmp/repl-standby \
//	    -shards 4
//
// Both processes print a state checksum at the end; matching checksums are
// the visible proof that promotion reconstructed the primary's final state
// bit for bit. The -dir directories must be fresh (the standby refuses to
// overwrite prior state). Geometry flags must match on both sides.
package main

import (
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"repro"
	"repro/internal/telemetry"
)

func main() {
	var (
		role    = flag.String("role", "", "primary | standby")
		listen  = flag.String("listen", ":7777", "primary: address to accept the standby on")
		connect = flag.String("connect", "localhost:7777", "standby: primary address")
		dir     = flag.String("dir", "", "engine directory (must be fresh for the standby)")
		rows    = flag.Int("rows", 100_000, "table rows (1M cells at the default 10 cols)")
		cols    = flag.Int("cols", 10, "table columns")
		updates = flag.Int("updates", 6400, "primary: updates per tick")
		ticks   = flag.Int("ticks", 500, "primary: ticks to run before exiting (the 'crash')")
		tickMs  = flag.Int("tick-ms", 10, "primary: tick pacing in milliseconds (0 = unpaced)")
		shards  = flag.Int("shards", 1, "engine shards on this side")
		lag     = flag.Int("lag", 16, "primary: replay-lag budget in ticks")
		syncLog = flag.Bool("sync", false, "fsync the log at every tick")
		seed    = flag.Int64("seed", 1, "primary: workload seed")
		netTO   = flag.Duration("net-timeout", 30*time.Second,
			"bound on dial/accept and on any single stream read; a silently dead peer "+
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
		log.Printf("replicate: telemetry on http://%s/metrics", ts.Addr)
	}
	if *dir == "" {
		log.Fatal("replicate: -dir is required")
	}
	table := repro.Table{Rows: *rows, Cols: *cols, CellSize: 4, ObjSize: 512}
	opts := repro.EngineOptions{
		Table: table, Dir: *dir, Mode: repro.ModeCopyOnUpdate,
		Shards: *shards, SyncEveryTick: *syncLog,
	}
	switch *role {
	case "primary":
		runPrimary(opts, *listen, *updates, *ticks, *tickMs, *lag, *seed, *netTO)
	case "standby":
		runStandby(opts, *connect, *netTO)
	default:
		fmt.Fprintln(os.Stderr, "replicate: -role must be primary or standby")
		flag.Usage()
		os.Exit(2)
	}
}

func runPrimary(opts repro.EngineOptions, listen string, updates, ticks, tickMs, lag int, seed int64, netTO time.Duration) {
	e, err := repro.OpenEngine(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	if rec := e.Recovery(); rec.Restored || rec.NextTick > 0 {
		log.Printf("primary: recovered prior state to tick %d", rec.NextTick)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("primary: waiting for a standby on %s", listen)
	conn, err := repro.AcceptWithin(ln, netTO)
	if err != nil {
		log.Fatal(err)
	}
	ln.Close()
	log.Printf("primary: standby connected from %s; shipping begins", conn.RemoteAddr())

	// Acks flow back continuously while ticks ship, so a read stalled past
	// the idle bound means the standby is gone, not slow.
	sh, err := repro.StartPrimary(e, repro.NewIdleConn(conn, netTO), repro.ShipperOptions{MaxLagTicks: lag})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	cells := opts.Table.NumCells()
	batch := make([]repro.Update, updates)
	start := time.Now()
	for t := 0; t < ticks; t++ {
		for i := range batch {
			batch[i] = repro.Update{Cell: uint32(rng.Intn(cells)), Value: rng.Uint32()}
		}
		if err := e.ApplyTick(batch); err != nil {
			log.Fatal(err)
		}
		if tickMs > 0 {
			time.Sleep(time.Duration(tickMs) * time.Millisecond)
		}
		if t%100 == 99 {
			st := sh.Stats()
			log.Printf("primary: tick %d; standby acked %d (lag %d ticks)",
				t, st.Acked, e.NextTick()-1-st.Acked)
		}
	}
	last := e.NextTick() - 1
	if err := sh.AwaitAck(last, 5*time.Minute); err != nil {
		log.Fatalf("primary: standby never caught up: %v", err)
	}
	st := sh.Stats()
	log.Printf("primary: %d ticks in %v; shipped %d ticks / %.1f MB (+%.1f MB bootstrap)",
		ticks, time.Since(start).Round(time.Millisecond),
		st.TicksShipped, float64(st.BytesShipped)/1e6, float64(st.SnapshotBytes)/1e6)
	fmt.Printf("primary final state: tick %d, checksum %08x\n",
		e.NextTick(), crc32.ChecksumIEEE(e.Store().Slab()))
	log.Printf("primary: exiting now — the standby should promote")
	sh.Stop() //nolint:errcheck // the deliberate "crash"
}

func runStandby(opts repro.EngineOptions, connect string, netTO time.Duration) {
	conn, err := repro.DialTimeout(connect, netTO)
	if err != nil {
		log.Fatal(err)
	}
	// Tick frames arrive at the primary's pacing; a read stalled past the
	// idle bound means the link died without closing — seal and promote.
	sb, err := repro.StartStandby(opts, repro.NewIdleConn(conn, netTO))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("standby: connected to %s; waiting for bootstrap", connect)
	select {
	case <-sb.Ready():
		st := sb.Stats()
		log.Printf("standby: bootstrapped %.1f MB as of tick %d; mirroring",
			float64(st.SnapshotBytes)/1e6, st.StartTick)
	case <-sb.Done():
		log.Fatalf("standby: bootstrap failed: %v", sb.Err())
	}

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := sb.Stats()
			log.Printf("standby: applied through tick %d (%d streamed ticks)",
				st.Applied, st.TicksApplied)
			continue
		case <-sb.Done():
		}
		break
	}
	log.Printf("standby: stream ended (%v); promoting", sb.Err())

	crash := time.Now()
	e, err := sb.Promote()
	if err != nil {
		log.Fatalf("standby: promote: %v", err)
	}
	takeover := time.Since(crash)
	defer e.Close()
	log.Printf("standby: PROMOTED in %v; now primary at tick %d", takeover.Round(time.Microsecond), e.NextTick())
	fmt.Printf("promoted state: tick %d, checksum %08x\n",
		e.NextTick(), crc32.ChecksumIEEE(e.Store().Slab()))
	log.Printf("standby: the checksum above should match the primary's final line")
}
