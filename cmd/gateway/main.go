// Command gateway runs the session tier as a real TCP service: a gateway
// process fronts a tick engine, accepts framed client sessions, batches
// each tick's intents into the canonical update set, and pushes
// interest-managed deltas back out — plus a swarm role that floods it with
// simulated TCP clients and measures intent→visible latency.
//
// Terminal 1 (the gateway; recovers the world from -dir if it holds state):
//
//	gateway -role serve -listen :7901 -dir /tmp/gateway-world -tick 50ms
//
// Terminal 2 (the client swarm):
//
//	gateway -role swarm -connect localhost:7901 -clients 64 \
//	    -scenario hotspot -updates 6400 -ticks 200
//
// Killing the gateway mid-run loses nothing durable: restarting terminal 1
// crash-recovers the engine (newest checkpoint image + WAL replay) and the
// swarm reconnects its sessions — the reconnect-storm path gatewaybench
// measures. The swarm decomposes each scenario tick over its clients by
// object span (the session.Driver decomposition, over real sockets), so
// the world the gateway builds is the same canonical per-tick update set
// the in-process harnesses verify byte for byte.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/report"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		role     = flag.String("role", "", "serve | swarm")
		listen   = flag.String("listen", ":7901", "serve: address to accept client sessions on")
		dir      = flag.String("dir", "", "serve: engine directory (recovered if it holds prior state)")
		mode     = flag.String("mode", "cou", "serve: checkpoint method (cou | naive)")
		shards   = flag.Int("shards", 1, "serve: engine shards")
		tick     = flag.Duration("tick", 50*time.Millisecond, "serve: tick interval (the paper's 50ms budget)")
		ticks    = flag.Int("ticks", 0, "serve: stop after this many ticks (0 = run until killed)")
		ckptEach = flag.Int("checkpoint-every", 64, "serve: checkpoint interval in ticks (0 = never)")
		connect  = flag.String("connect", "", "swarm: gateway address")
		clients  = flag.Int("clients", 64, "swarm: TCP client sessions")
		scenario = flag.String("scenario", "hotspot", "swarm: workload scenario, one of "+strings.Join(workload.Names(), ", "))
		updates  = flag.Int("updates", 6400, "swarm: baseline updates per tick")
		swTicks  = flag.Int("swarmticks", 200, "swarm: scenario length in ticks")
		skew     = flag.Float64("skew", 0.8, "swarm: scenario skew in [0,1)")
		seed     = flag.Int64("seed", 1, "swarm: workload seed")
		interval = flag.Duration("interval", 0, "swarm: pacing between submitted ticks (0 = as fast as the gateway ticks)")
		aoiSlots = flag.Int("aoi-slots", 1, "swarm: interest window widening beyond each client's span, in 64-object slots")
		rows     = flag.Int("rows", 100_000, "table rows (quick-scale default; must match the serve side)")
		cols     = flag.Int("cols", 10, "table columns (must match the serve side)")
		netTO    = flag.Duration("net-timeout", 30*time.Second,
			"bound on dial and on any single session-stream read; a dead peer "+
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
		log.Printf("gateway: telemetry on http://%s/metrics", ts.Addr)
	}
	table := gamestate.Table{Rows: *rows, Cols: *cols, CellSize: 4, ObjSize: 512}
	switch *role {
	case "serve":
		runServe(table, *listen, *dir, *mode, *shards, *tick, *ticks, *ckptEach, *netTO)
	case "swarm":
		runSwarm(table, *connect, *clients, *scenario, *updates, *swTicks, *skew, *seed,
			*interval, *aoiSlots, *netTO)
	default:
		fmt.Fprintln(os.Stderr, "gateway: -role must be serve or swarm")
		flag.Usage()
		os.Exit(2)
	}
}

// runServe crash-recovers the world, opens a gateway over it, accepts
// client sessions, and drives the tick loop at the configured pace.
func runServe(table gamestate.Table, listen, dir, mode string, shards int,
	tick time.Duration, maxTicks, ckptEach int, netTO time.Duration) {
	if dir == "" {
		log.Fatal("gateway: -dir is required for serve")
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
		log.Printf("serve: recovered to tick %d in %v (restore %v ∥ replay %v)",
			pres.NextTick, pres.TotalDuration.Round(time.Millisecond),
			pres.RestoreDuration.Round(time.Millisecond), pres.ReplayDuration.Round(time.Millisecond))
	}
	gw, err := session.NewGateway(session.Options{World: session.EngineWorld{E: e}})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("serve: accepting sessions on %s (world tick %d, %d objects)",
		listen, e.NextTick(), table.NumObjects())
	var served atomic.Uint64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed on shutdown
			}
			served.Add(1)
			go func() {
				// A session silent past the idle bound is dead — the typed
				// timeout tears it down instead of pinning the slot forever.
				if err := gw.ServeConn(replication.NewIdleConn(conn, netTO)); err != nil {
					log.Printf("serve: session ended: %v", err)
				}
			}()
		}
	}()

	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	start := e.NextTick()
	for range ticker.C {
		t := e.NextTick()
		if _, err := gw.Step(); err != nil {
			log.Fatalf("serve: tick %d: %v", t, err)
		}
		if ckptEach > 0 && t > 0 && t%uint64(ckptEach) == 0 {
			ck0 := time.Now()
			if _, err := e.CheckpointNow(); err != nil {
				log.Fatalf("serve: checkpoint at tick %d: %v", t, err)
			}
			log.Printf("serve: checkpoint at tick %d took %v", t, time.Since(ck0).Round(time.Millisecond))
		}
		if t%64 == 0 {
			st := gw.Stats()
			log.Printf("serve: tick %d, %d sessions, %d intents, %d deltas (%d dropped), %d conns served",
				t, gw.Sessions(), st.Intents, st.Deltas, st.Dropped, served.Load())
		}
		if maxTicks > 0 && e.NextTick() >= start+uint64(maxTicks) {
			break
		}
	}
	st := gw.Stats()
	log.Printf("serve: done at tick %d: %d ticks, %d intents, %d deltas (%d dropped); state durable in %s",
		e.NextTick(), st.Ticks, st.Intents, st.Deltas, st.Dropped, dir)
}

// swarmClient is one TCP client: its owned span, its session, and its
// latency samples. Latency is submit→next-visible-delta: the serve side
// ticks at its own pace and may coalesce several submitted batches into one
// world tick, so each pending submit stamp is resolved by the first delta
// that arrives after it (a client's own intents always fall inside its
// interest window, so every submit is eventually answered).
type swarmClient struct {
	id       int
	span     session.Range
	client   *session.Client
	mu       sync.Mutex
	pending  []time.Time
	lat      []float64
	deltas   int
	readDone chan struct{}
}

// runSwarm floods a gateway with TCP clients replaying a scenario
// decomposed by object span, and reports submit→delta latency.
func runSwarm(table gamestate.Table, connect string, clients int, scenario string,
	updates, ticks int, skew float64, seed int64, interval time.Duration,
	aoiSlots int, netTO time.Duration) {
	if connect == "" {
		log.Fatal("gateway: -connect is required for swarm")
	}
	if clients < 1 || clients > table.NumObjects() {
		log.Fatalf("gateway: -clients %d outside [1,%d]", clients, table.NumObjects())
	}
	src, err := workload.New(scenario, workload.Config{
		Table: table, UpdatesPerTick: updates, Ticks: ticks, Skew: skew, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	objects := table.NumObjects()
	span := func(i int) session.Range {
		return session.Range{Lo: i * objects / clients, Hi: (i + 1) * objects / clients}
	}
	ownerOf := func(obj int) int {
		i := obj * clients / objects
		for i+1 < clients && obj >= span(i+1).Lo {
			i++
		}
		for i > 0 && obj < span(i).Lo {
			i--
		}
		return i
	}

	swarm := make([]*swarmClient, clients)
	for i := range swarm {
		conn, err := replication.Dial(connect, netTO)
		if err != nil {
			log.Fatalf("swarm: client %d: %v", i, err)
		}
		r := span(i)
		aoi := session.Range{Lo: r.Lo - aoiSlots*cluster.SlotSize, Hi: r.Hi + aoiSlots*cluster.SlotSize}
		if aoi.Lo < 0 {
			aoi.Lo = 0
		}
		if aoi.Hi > objects {
			aoi.Hi = objects
		}
		c, err := session.NewClient(replication.NewIdleConn(conn, netTO), table, uint64(i), aoi)
		if err != nil {
			log.Fatalf("swarm: client %d handshake: %v", i, err)
		}
		sc := &swarmClient{id: i, span: r, client: c, readDone: make(chan struct{})}
		swarm[i] = sc
		go sc.readLoop()
	}
	first := swarm[0].client.NextTick
	log.Printf("swarm: %d clients connected to %s (world tick %d)", clients, connect, first)

	cellsPerObj := uint32(table.CellsPerObject())
	var cells []uint32
	var batch []wal.Update
	per := make([][]wal.Update, clients)
	sent := 0
	for t := 0; t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		for i := range per {
			per[i] = per[i][:0]
		}
		for _, u := range batch {
			i := ownerOf(int(u.Cell / cellsPerObj))
			per[i] = append(per[i], u)
		}
		now := time.Now()
		for i, sc := range swarm {
			if len(per[i]) == 0 {
				continue
			}
			sc.mu.Lock()
			sc.pending = append(sc.pending, now)
			sc.mu.Unlock()
			if err := sc.client.Submit(per[i]); err != nil {
				log.Fatalf("swarm: client %d submit: %v", i, err)
			}
			sent += len(per[i])
		}
		if interval > 0 {
			time.Sleep(interval)
		}
	}
	// Give in-flight deltas a beat to drain, then close everything.
	time.Sleep(500 * time.Millisecond)
	var lat []float64
	deltas := 0
	for _, sc := range swarm {
		sc.client.Close()
		<-sc.readDone
		sc.mu.Lock()
		lat = append(lat, sc.lat...)
		deltas += sc.deltas
		sc.mu.Unlock()
	}
	if len(lat) == 0 {
		log.Fatalf("swarm: %d intents sent but no deltas observed — is the serve tick loop running?", sent)
	}
	s := report.Summarize(lat)
	fmt.Printf("swarm: %d clients, %d intents, %d deltas; submit→delta latency ms: mean %.2f p50 %.2f p95 %.2f max %.2f\n",
		clients, sent, deltas, s.Mean, s.P50, s.P95, s.Max)
}

// readLoop drains one client's delta stream: each arriving delta resolves
// every submit stamped before it (see swarmClient).
func (sc *swarmClient) readLoop() {
	defer close(sc.readDone)
	for {
		_, _, err := sc.client.ReadDelta()
		if err != nil {
			return // connection closed at end of run
		}
		now := time.Now()
		sc.mu.Lock()
		for _, t0 := range sc.pending {
			sc.lat = append(sc.lat, now.Sub(t0).Seconds()*1e3)
		}
		sc.pending = sc.pending[:0]
		sc.deltas++
		sc.mu.Unlock()
	}
}
