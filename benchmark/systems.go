package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/recovery"
	"repro/internal/session"
	"repro/internal/wal"
)

// stepTimeout bounds every wait for the program inside one tick. A tick
// takes milliseconds; hitting this means the closed loop is broken.
const stepTimeout = 30 * time.Second

// tickTimes are the boundaries of one timed tick: start → submitted →
// stepped → delivered. A workload without a session tier has start ==
// submitted and stepped == delivered. The tick's latency is
// delivered - start.
type tickTimes struct {
	start, submitted, stepped, delivered time.Time
}

// counters are cumulative totals read through the program's public stats
// accessors; the live phase is the difference of two readings.
type counters struct {
	engines     int           // engines the world runs (cluster nodes, or 1)
	updates     int64         // applied, summed over engines
	apply       time.Duration // Stats.ApplyTotal, summed over engines
	pause       time.Duration // Stats.PauseTotal, summed over engines
	copies      int64         // copy-on-update pre-image copies
	ckptBytes   int64         // bytes written into checkpoint images
	checkpoints [][]engine.CheckpointInfo
	barrierWait time.Duration
	gateway     session.Stats
}

func (c *counters) addEngine(e *engine.Engine) {
	st, cp := e.Stats(), e.CheckpointStats()
	c.engines++
	c.updates += st.UpdatesApplied
	c.apply += st.ApplyTotal
	c.pause += st.PauseTotal
	c.copies += cp.Copies.Load()
	c.ckptBytes += cp.BytesWritten.Load()
	c.checkpoints = append(c.checkpoints, st.Checkpoints)
}

// system is one workload's program under test, driven tick by tick. Every
// call comes from the one goroutine that runs the workload.
type system interface {
	// prepare splits a generated tick among the system's clients and returns
	// the canonical batch the world must apply for it. Not timed as latency.
	prepare(batch []wal.Update) []wal.Update
	// tick runs the prepared tick as a closed loop. applied is the batch the
	// gateway built, nil when the workload has no gateway. deltas counts the
	// deltas clients received and bad the ones that were not the tick's.
	tick(t int) (tt tickTimes, applied []wal.Update, deltas, bad int, err error)
	// checkpoint completes an image that covers every tick applied so far.
	// pin is set for the one that precedes the pinned tail.
	checkpoint(pin bool) error
	// crash stops the world and returns the directory holding its crash image.
	crash() (string, error)
	// stop stops the world without keeping an image (a set-up thrown away).
	stop() error
	// counters reads the public stats accessors. Only valid between ticks.
	counters() counters
	// wireBytes is the traffic on the system's TCP connections so far.
	wireBytes() int64
}

// env is what a workload's builders share.
type env struct {
	sp    spec
	rec   *recorder    // nil when untraced
	dev   *deviceStats // nil when untraced
	world *timedWorld  // the traced run's World wrapper, nil otherwise
}

func (v *env) deviceFactory() func(string) (disk.Device, error) {
	if v.dev == nil {
		return nil
	}
	return v.dev.factory
}

// wrapWorld interposes the World stopwatch in a traced run.
func (v *env) wrapWorld(w session.World) session.World {
	if v.rec == nil {
		return w
	}
	v.world = &timedWorld{World: w}
	return v.world
}

// ---------------------------------------------------------------------------
// Engine-only systems: bulk-apply and the live phase of crash-recover.

type engineSys struct {
	v     *env
	opts  engine.Options
	e     *engine.Engine
	batch []wal.Update
	// reopenAs, when set, is what the pinning checkpoint leaves running: the
	// engine is closed behind its covering image and reopened with these
	// options.
	reopenAs *engine.Options
	// killStyle makes crash() copy the live directory before closing, so the
	// image holds only what was written and synced when the crash happened.
	killStyle bool
}

func openEngineSys(v *env, opts engine.Options) (*engineSys, error) {
	e, err := engine.Open(opts)
	if err != nil {
		return nil, err
	}
	return &engineSys{v: v, opts: opts, e: e}, nil
}

func (s *engineSys) prepare(batch []wal.Update) []wal.Update {
	s.batch = batch
	return batch
}

func (s *engineSys) tick(t int) (tickTimes, []wal.Update, int, int, error) {
	t0 := time.Now()
	err := s.e.ApplyTickParallel(s.batch)
	t1 := time.Now()
	s.v.rec.add(treeTick, t, "world.tick", "tick", t0, t1)
	return tickTimes{t0, t0, t1, t1}, nil, 0, 0, err
}

func (s *engineSys) checkpoint(pin bool) error {
	if _, err := s.e.CheckpointAsOf(s.e.NextTick() - 1); err != nil {
		return err
	}
	if !pin || s.reopenAs == nil {
		return nil
	}
	if err := s.e.Close(); err != nil {
		return err
	}
	opts := *s.reopenAs
	e, err := engine.Open(opts)
	if err != nil {
		return err
	}
	s.e, s.opts, s.reopenAs = e, opts, nil
	return nil
}

func (s *engineSys) crash() (string, error) {
	dir := s.opts.Dir
	if s.killStyle {
		dir = s.opts.Dir + ".crash"
		if err := refreshDir(s.opts.Dir, dir); err != nil {
			return "", err
		}
	}
	return dir, s.stop()
}

func (s *engineSys) stop() error { return s.e.Close() }

func (s *engineSys) counters() counters {
	var c counters
	c.addEngine(s.e)
	return c
}

func (s *engineSys) wireBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// Gateway systems: durable-cluster and tcp-engine share the client split,
// the canonical batch, the expected deltas and the shape of a tick; they
// differ in what carries intents and deltas (frontEnd) and in the world.

// frontEnd is the client side of a gateway.
type frontEnd interface {
	submit(client int, intents []wal.Update) error
	// awaitStaged returns once the gateway has staged everything submitted.
	awaitStaged() error
	// awaitDelivered returns once every client with want[i] > 0 holds tick's
	// delta. Timed.
	awaitDelivered(tick uint64, want []int) error
	// collect checks the deltas of tick against want, outside the timed
	// section: deltas received, and how many were not the expected one.
	collect(tick uint64, want []int) (deltas, bad int)
	wireBytes() int64
	close() error
}

type gatewaySys struct {
	v        *env
	gw       *session.Gateway
	front    frontEnd
	objects  int
	cellsPer uint32
	aoi      []session.Range

	per       [][]wal.Update // the prepared tick, split by owning client
	canonical []wal.Update   // and in the order the gateway must build it
	want      []int          // updates each client's delta must carry
	slotSum   []int          // prefix sums of updates per interest slot

	checkpointFn func() error
	stopWorld    func() error
	countersFn   func(*counters)
	dir          string
}

// clientSpan is client i's owned object range: cut i of n equal cuts.
func clientSpan(i, n, objects int) session.Range {
	return session.Range{Lo: i * objects / n, Hi: (i + 1) * objects / n}
}

// clientAOI widens a span by one interest slot each side, clamped.
func clientAOI(r session.Range, objects int) session.Range {
	return session.Range{Lo: max(0, r.Lo-cluster.SlotSize), Hi: min(objects, r.Hi+cluster.SlotSize)}
}

func newGatewaySys(v *env, gw *session.Gateway, clients int) *gatewaySys {
	t := gw.Table()
	s := &gatewaySys{
		v: v, gw: gw, objects: t.NumObjects(), cellsPer: uint32(t.CellsPerObject()),
		aoi:     make([]session.Range, clients),
		per:     make([][]wal.Update, clients),
		want:    make([]int, clients),
		slotSum: make([]int, (t.NumObjects()+cluster.SlotSize-1)>>cluster.SlotShift+1),
	}
	for i := range s.aoi {
		s.aoi[i] = clientAOI(clientSpan(i, clients, s.objects), s.objects)
	}
	return s
}

func (s *gatewaySys) prepare(batch []wal.Update) []wal.Update {
	n := len(s.per)
	for i := range s.per {
		s.per[i] = s.per[i][:0]
	}
	for i := range s.slotSum {
		s.slotSum[i] = 0
	}
	for _, u := range batch {
		obj := int(u.Cell / s.cellsPer)
		owner := obj * n / s.objects
		for owner+1 < n && obj >= clientSpan(owner+1, n, s.objects).Lo {
			owner++
		}
		for owner > 0 && obj < clientSpan(owner, n, s.objects).Lo {
			owner--
		}
		s.per[owner] = append(s.per[owner], u)
		s.slotSum[obj>>cluster.SlotShift+1]++
	}
	for i := 1; i < len(s.slotSum); i++ {
		s.slotSum[i] += s.slotSum[i-1]
	}
	// A session sees the updates of every interest slot its window touches.
	for i, r := range s.aoi {
		lo, hi := r.Lo>>cluster.SlotShift, (r.Hi+cluster.SlotSize-1)>>cluster.SlotShift
		s.want[i] = s.slotSum[hi] - s.slotSum[lo]
	}
	// The gateway drains sessions in ascending ID, each in submission order.
	s.canonical = s.canonical[:0]
	for _, intents := range s.per {
		s.canonical = append(s.canonical, intents...)
	}
	return s.canonical
}

func (s *gatewaySys) tick(t int) (tt tickTimes, applied []wal.Update, deltas, bad int, err error) {
	tt.start = time.Now()
	for i, intents := range s.per {
		if len(intents) == 0 {
			continue
		}
		if err = s.front.submit(i, intents); err != nil {
			return tt, nil, 0, 0, fmt.Errorf("submit: %w", err)
		}
	}
	if err = s.front.awaitStaged(); err != nil {
		return tt, nil, 0, 0, fmt.Errorf("stage: %w", err)
	}
	tt.submitted = time.Now()
	if applied, err = s.gw.Step(); err != nil {
		return tt, nil, 0, 0, fmt.Errorf("step: %w", err)
	}
	tt.stepped = time.Now()
	if err = s.front.awaitDelivered(uint64(t), s.want); err != nil {
		return tt, nil, 0, 0, fmt.Errorf("deliver: %w", err)
	}
	tt.delivered = time.Now()

	if r := s.v.rec; r != nil {
		r.add(treeTick, t, "session.submit", "tick", tt.start, tt.submitted)
		r.add(treeTick, t, "session.step", "tick", tt.submitted, tt.stepped)
		r.add(treeTick, t, "world.tick", "session.step", s.v.world.start, s.v.world.end)
		r.add(treeTick, t, "session.fanout", "tick", tt.stepped, tt.delivered)
	}
	deltas, bad = s.front.collect(uint64(t), s.want)
	return tt, applied, deltas, bad, nil
}

func (s *gatewaySys) checkpoint(bool) error { return s.checkpointFn() }

func (s *gatewaySys) crash() (string, error) { return s.dir, s.stop() }

func (s *gatewaySys) stop() error {
	err := s.front.close()
	if cerr := s.gw.Close(); err == nil {
		err = cerr
	}
	if cerr := s.stopWorld(); err == nil {
		err = cerr
	}
	return err
}

func (s *gatewaySys) counters() counters {
	c := counters{gateway: s.gw.Stats()}
	s.countersFn(&c)
	return c
}

func (s *gatewaySys) wireBytes() int64 { return s.front.wireBytes() }

// inProcFront is clients connected with Gateway.Connect: no wire, one
// delta queue per session.
type inProcFront struct {
	gw       *session.Gateway
	sessions []*session.Session
}

func (f *inProcFront) submit(i int, intents []wal.Update) error { return f.sessions[i].Submit(intents) }
func (f *inProcFront) awaitStaged() error                       { return nil }
func (f *inProcFront) wireBytes() int64                         { return 0 }

func (f *inProcFront) awaitDelivered(tick uint64, _ []int) error {
	return f.gw.AwaitDelivered(tick, stepTimeout)
}

func (f *inProcFront) collect(tick uint64, want []int) (deltas, bad int) {
	for i, s := range f.sessions {
		select {
		case d := <-s.Deltas():
			deltas++
			if d.Tick != tick || len(d.Updates) != want[i] {
				bad++
			}
		default:
			if want[i] > 0 {
				bad++
			}
		}
	}
	return deltas, bad
}

func (f *inProcFront) close() error {
	for _, s := range f.sessions {
		s.Close()
	}
	return nil
}

// tcpFront is clients on real loopback TCP connections, each served by
// Gateway.ServeConn.
type tcpFront struct {
	ln      net.Listener
	clients []*session.Client
	cconn   []*meteredConn // client side: counts what was sent
	sconn   []*meteredConn // server side: tells when it was all staged
	serving sync.WaitGroup
	got     []int // updates in the delta each client last read
}

// dialClients opens n sessions over loopback TCP, one after another so that
// server connection i belongs to client i.
func dialClients(gw *session.Gateway, n int) (*tcpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &tcpFront{ln: ln, got: make([]int, n)}
	t := gw.Table()
	objects := t.NumObjects()
	for i := 0; i < n; i++ {
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		sc, err := ln.Accept()
		if err != nil {
			cc.Close()
			f.close()
			return nil, err
		}
		server, client := newMeteredConn(sc), newMeteredConn(cc)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			// The error is the session's end (EOF, bye or a closed socket);
			// a failure that matters shows as a tick that times out.
			_ = gw.ServeConn(server)
		}()
		f.sconn, f.cconn = append(f.sconn, server), append(f.cconn, client)
		c, err := session.NewClient(client, t, uint64(i), clientAOI(clientSpan(i, n, objects), objects))
		if err != nil {
			cc.Close()
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

func (f *tcpFront) submit(i int, intents []wal.Update) error { return f.clients[i].Submit(intents) }

func (f *tcpFront) awaitStaged() error {
	for i, s := range f.sconn {
		if err := s.awaitConsumed(f.cconn[i].written.Load(), stepTimeout); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

func (f *tcpFront) awaitDelivered(tick uint64, want []int) error {
	for i, c := range f.clients {
		f.got[i] = -1
		if want[i] == 0 {
			continue
		}
		f.cconn[i].SetReadDeadline(time.Now().Add(stepTimeout))
		got, updates, err := c.ReadDelta()
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		if got != tick {
			return fmt.Errorf("client %d: read the delta of tick %d while waiting for tick %d", i, got, tick)
		}
		f.got[i] = len(updates)
	}
	return nil
}

func (f *tcpFront) collect(_ uint64, want []int) (deltas, bad int) {
	for i, n := range f.got {
		if n >= 0 {
			deltas++
			if n != want[i] {
				bad++
			}
		}
	}
	return deltas, bad
}

func (f *tcpFront) wireBytes() int64 {
	var n int64
	for i := range f.cconn {
		n += f.cconn[i].written.Load() + f.sconn[i].written.Load()
	}
	return n
}

func (f *tcpFront) close() error {
	var first error
	for _, c := range f.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.serving.Wait()
	if err := f.ln.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// ---------------------------------------------------------------------------
// Builders.

// buildDurableCluster: 512 in-process sessions → gateway → 2-node cluster
// with copy-on-update checkpoints on every node.
func buildDurableCluster(v *env, dir string) (system, error) {
	c, err := cluster.New(clusterOptions(v, dir))
	if err != nil {
		return nil, err
	}
	gw, err := session.NewGateway(session.Options{World: v.wrapWorld(session.ClusterWorld{C: c})})
	if err != nil {
		c.Close()
		return nil, err
	}
	s := newGatewaySys(v, gw, v.sp.clients)
	front := &inProcFront{gw: gw}
	for i, aoi := range s.aoi {
		sess, err := gw.Connect(uint64(i), aoi)
		if err != nil {
			gw.Close()
			c.Close()
			return nil, err
		}
		front.sessions = append(front.sessions, sess)
	}
	s.front, s.dir = front, dir
	s.checkpointFn = func() error { _, err := c.CheckpointWorld(); return err }
	s.stopWorld = c.Close
	s.countersFn = func(k *counters) {
		for _, n := range c.Nodes() {
			k.addEngine(n.E)
		}
		k.barrierWait = c.BarrierWait()
	}
	return s, nil
}

func clusterOptions(v *env, dir string) cluster.Options {
	return cluster.Options{
		Table: v.sp.table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: v.sp.nodes, Shards: v.sp.shards,
		DiskBytesPerSec: v.sp.diskBytesPerSec, RecoveryMode: cluster.RecoveryDisk, DeviceFactory: v.deviceFactory(),
	}
}

// buildTCPEngine: 2 loopback TCP clients → ServeConn → gateway → one
// single-shard engine.
func buildTCPEngine(v *env, dir string) (system, error) {
	e, err := engine.Open(engineOptions(v, dir))
	if err != nil {
		return nil, err
	}
	gw, err := session.NewGateway(session.Options{
		World: v.wrapWorld(session.EngineWorld{E: e}), MaxStaged: 1 << 16,
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	front, err := dialClients(gw, v.sp.clients)
	if err != nil {
		gw.Close()
		e.Close()
		return nil, err
	}
	s := newGatewaySys(v, gw, v.sp.clients)
	s.front, s.dir = front, dir
	s.checkpointFn = func() error { _, err := e.CheckpointAsOf(e.NextTick() - 1); return err }
	s.stopWorld = e.Close
	s.countersFn = func(k *counters) { k.addEngine(e) }
	return s, nil
}

// engineOptions is the engine configuration the workload's spec names; it is
// also what the workload recovers with.
func engineOptions(v *env, dir string) engine.Options {
	return engine.Options{
		Table: v.sp.table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: v.sp.shards,
		DiskBytesPerSec: v.sp.diskBytesPerSec, DeviceFactory: v.deviceFactory(),
	}
}

func buildBulkApply(v *env, dir string) (system, error) {
	return openEngineSys(v, engineOptions(v, dir))
}

// buildCrashRecover ticks under copy-on-update; the pinning checkpoint then
// switches the engine to ModeNone, so the tail is log-only and its length,
// not a checkpoint's timing, decides what a recovery replays. The tail syncs
// its log on every tick: the crash image is a copy of the live directory, and
// it must hold every tick the reference was fed.
func buildCrashRecover(v *env, dir string) (system, error) {
	s, err := openEngineSys(v, engineOptions(v, dir))
	if err != nil {
		return nil, err
	}
	tail := engineOptions(v, dir)
	tail.Mode, tail.SyncEveryTick = engine.ModeNone, true
	s.reopenAs, s.killStyle = &tail, true
	return s, nil
}

// ---------------------------------------------------------------------------
// Recoveries.

// recovered is one timed recovery: the recovery call, then the first tick
// the recovered world serves.
type recovered struct {
	call, opened, served time.Time
	// stages is the pipeline breakdown of the slowest partition (the only
	// one on a single engine).
	stages recovery.ParallelResult
	// worldWall is cluster.WorldRecovery.Wall; zero on a single engine.
	worldWall time.Duration
}

// recoverEngine recovers one engine directory with the sharded pipeline,
// serves first as its first tick and hands the resulting state to check.
func recoverEngine(v *env, dir string, first []wal.Update, check func([]byte)) (recovered, error) {
	opts := engineOptions(v, dir)
	opts.Mode, opts.DiskBytesPerSec = v.sp.recoverMode, v.sp.recoverDiskBytesPerSec
	var r recovered
	r.call = time.Now()
	e, pres, err := engine.RecoverFrom(opts)
	r.opened = time.Now()
	if err != nil {
		return r, err
	}
	err = e.ApplyTickParallel(first)
	r.served = time.Now()
	r.stages = pres
	if err == nil {
		check(e.Store().Slab())
	}
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	return r, err
}

// recoverCluster recovers a cluster root down the disk rung, serves first as
// its first tick and hands the resulting world state to check.
func recoverCluster(v *env, dir string, first []wal.Update, check func([]byte)) (recovered, error) {
	var r recovered
	r.call = time.Now()
	opts := clusterOptions(v, dir)
	opts.DiskBytesPerSec = v.sp.recoverDiskBytesPerSec
	c, wr, err := cluster.Recover(dir, opts)
	r.opened = time.Now()
	if err != nil {
		return r, err
	}
	err = c.Tick(first)
	r.served = time.Now()
	r.worldWall = wr.Wall
	for _, p := range wr.PerNode {
		if p.TotalDuration >= r.stages.TotalDuration {
			r.stages = p
		}
	}
	if err == nil {
		state := make([]byte, c.Table().StateBytes())
		if err = c.ReadWorld(state); err == nil {
			check(state)
		}
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return r, err
}
