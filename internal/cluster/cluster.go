package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// MaxWindow bounds Options.MaxSkew (and the max_skew a manifest may carry):
// the window sizes every node's work queue and the coordinator's buffer
// ring, so it must never come unchecked from a file. Experiments use single
// digits (clusterbench's default is 4).
const MaxWindow = 1024

// Options configures a cluster of in-process nodes.
type Options struct {
	// Table is the world geometry every node shares. Each node runs a full
	// engine over it but applies (and logs) only the updates of objects it
	// owns, so a node's WAL and checkpoint images cover exactly its
	// partition's history.
	Table gamestate.Table
	// Dir is the cluster root: node i lives in Dir/node-i (its engine
	// state), the manifest in Dir/cluster.json.
	Dir string
	// Mode is every node's checkpoint method.
	Mode engine.Mode
	// Nodes is the requested node count; like the engine's shard plan the
	// request is rounded down to a power of two, every node's span is a
	// power-of-two number of objects, and small or ragged worlds fold to
	// fewer nodes (the effective count is len(Cluster.Nodes())).
	Nodes int
	// Shards is each node's engine shard count (default 1: the cluster is
	// the parallelism axis under test; node-internal sharding composes).
	Shards int
	// MaxSkew is the coordination policy, the window W: Tick(D) returns once
	// every node has applied tick D-W, so the fastest node may run ahead of
	// the slowest by at most W ticks. 0 (the default) is the lock-step tick
	// barrier: the tick is applied everywhere when Tick returns. At most
	// MaxWindow. Recover takes it from the manifest.
	MaxSkew int
	// DiskBytesPerSec throttles each node's backup devices.
	DiskBytesPerSec float64
	// SyncEveryTick fsyncs each node's log every tick: in a logged world
	// (MaxSkew > 0 or Emit) when the tick is logged at dispatch, before any
	// node sees it, otherwise when the node applies it. With it, the
	// logs-bound-the-world invariant recovery relies on holds across hard
	// kills; without it, only across clean crashes (Crash/Close). A hard kill
	// that loses or tears a log's last ticks moves the cut back to the last
	// tick every log holds whole, or is a typed *TornError refusal when a
	// node's image is already past that.
	SyncEveryTick bool
	// CheckpointEvery, when > 0, schedules uncoordinated per-node
	// checkpoints from the node workers: node i cuts after applying tick T
	// when (T+1+offset_i) is a multiple of CheckpointEvery, with offsets
	// staggered across nodes so cuts never line up. The cut stalls only its
	// own node; a non-zero window absorbs the stall instead of charging it
	// to every partition the way CheckpointWorld's coordinated cut does.
	CheckpointEvery int
	// Emit, when non-nil, is the cross-partition action source (see
	// EmitFunc). Recover needs the same function to regenerate in-flight
	// messages.
	Emit EmitFunc
	// BarrierTimeout bounds every coordinator wait on node progress — the
	// window wait in Tick, Join, and CheckpointWorld — so one stalled node
	// yields a typed *TimeoutError instead of hanging the coordinator
	// forever. Zero keeps the unbounded wait. After a timeout the cluster is
	// wedged: the straggler may still hold its engine, so further tick calls
	// fail with the same error.
	BarrierTimeout time.Duration
	// BeforeApply, when non-nil, runs on the node's worker as it takes each
	// dispatched tick, before it applies the tick or, once the world has
	// crashed, drops it — the test hook straggler injection, the
	// apply-ordering checks and the crash-state enumeration use.
	BeforeApply func(node int, tick uint64)
	// DeviceFactory overrides how each node engine opens its backup devices
	// (fault injection). The path identifies both the node and the backup.
	DeviceFactory func(path string) (disk.Device, error)
	// RecoveryMode is ignored: Recover builds each partition's ladder from
	// what is attached (Standbys).
	//
	// Deprecated: attach the sources instead.
	RecoveryMode RecoveryMode
	// Standbys supplies Recover's standby rung: Standbys[i], when non-nil,
	// is a warm standby mirroring node i that Recover may promote in place
	// of restoring from disk. The promoted engine keeps its own directory;
	// the node's root-relative directory goes stale, exactly as a real
	// failover's would. New ignores it.
	Standbys []*replication.Standby
}

// ErrNeedsBarrier refuses a feature whose composition with logged messages
// or a non-zero window no byte-identity test proves yet: live migration and
// the standby rung work only on the plain barrier world (MaxSkew = 0, no
// Emit). New, Recover and Migrate wrap it with the feature's name.
var ErrNeedsBarrier = errors.New("proven only at MaxSkew = 0 without Emit")

// logged reports whether the policy logs each tick at dispatch: a non-zero
// window leaves dispatched ticks unapplied at a crash, and Emit puts
// messages in flight. A world with neither logs each tick as its nodes
// apply it.
func (o *Options) logged() bool { return o.MaxSkew > 0 || o.Emit != nil }

// needsBarrier is the typed refusal of feature on a logged world.
func (o *Options) needsBarrier(feature string) error {
	if !o.logged() {
		return nil
	}
	return fmt.Errorf("cluster: %s: %w", feature, ErrNeedsBarrier)
}

// check validates the coordination policy New and Recover run with.
func (o *Options) check() error {
	if o.MaxSkew < 0 || o.MaxSkew > MaxWindow {
		return fmt.Errorf("cluster: MaxSkew %d outside [0, %d]", o.MaxSkew, MaxWindow)
	}
	if len(o.Standbys) > 0 {
		return o.needsBarrier("standby promotion")
	}
	return nil
}

// TimeoutError reports a coordinator wait that exceeded
// Options.BarrierTimeout: the listed nodes had not got there when the
// deadline hit.
type TimeoutError struct {
	Op      string // "tick", "join" or "checkpoint"
	Tick    uint64
	Waiting []int // nodes the coordinator was still waiting for
	Wait    time.Duration
}

// Error formats the operation, tick, deadline, and lagging nodes.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cluster: %s wait at tick %d timed out after %v (nodes %v still applying)",
		e.Op, e.Tick, e.Wait, e.Waiting)
}

// Timeout marks the error as a deadline failure (net.Error convention).
func (e *TimeoutError) Timeout() bool { return true }

// Node is one cluster member: a full engine and its place in the world.
type Node struct {
	Index int
	Dir   string
	E     *engine.Engine
}

// workItem is one dispatched tick on its way to a node worker: the tick's
// envelopes.
type workItem struct {
	tick uint64
	envs []engine.Envelope
}

// tickBufs is one in-flight tick's routed batches and envelope lists. The
// workers hold them until the tick applies, possibly MaxSkew ticks after
// dispatch, so the coordinator keeps a ring of MaxSkew+1 sets: when tick D is
// dispatched every node has applied D-MaxSkew-1, the set's previous user.
type tickBufs struct {
	perNode [][]wal.Update
	envs    [][]engine.Envelope
}

// Cluster is a multi-node world under one coordination policy, the window
// Options.MaxSkew. One coordinating goroutine drives it: Tick routes a
// tick's updates to their owner nodes, hands the per-node batches to one
// persistent apply worker per node, and returns once every node has applied
// the tick MaxSkew behind it. Each node applies its dispatched ticks in
// order, so per-node history is the same at every window — nodes just
// traverse it at independent rates. At MaxSkew = 0 that is the tick
// barrier: no node starts tick T+1 before every node has applied T, so a cut
// at a tick boundary is globally consistent by construction. Past it one
// slow partition no longer gates every tick of every other (the paper's
// Section 8 worry), and a crash is reconciled from logged messages instead
// (see messages.go).
type Cluster struct {
	opts    Options
	nodes   []*Node
	routing *Routing
	tick    uint64 // next tick to dispatch (coordinator-owned)
	window  uint64 // MaxSkew as uint64

	cellsPerObj uint32
	ring        []tickBufs
	work        []chan workItem
	wg          sync.WaitGroup // the node workers and in-flight coordinated cuts
	closed      bool

	// mu guards what the workers publish and the coordinator waits on; cond
	// is broadcast on every change.
	mu        sync.Mutex
	cond      *sync.Cond
	applied   []uint64 // applied[i] = ticks node i has applied (its next tick)
	errs      []error  // sticky: the first failure of each node
	waiting   []int    // await's scratch: the nodes still short
	committed uint64   // ticks every node has applied, as last signaled
	crashed   bool
	pending   map[uint64][]pendingMsg // delivery tick -> messages
	cuts      map[int]NodeCut         // newest recorded cut per node

	manMu sync.Mutex // serializes manifest writes

	// barrierWait accumulates the coordinator's blocked time waiting on node
	// progress in Tick and Join — the serialization the policy imposes: the
	// slowest node's tick at MaxSkew = 0, ≈ 0 once the window absorbs the
	// imbalance.
	barrierWait time.Duration

	// wedged is set by the first wait timeout (Close then grants the
	// stragglers a grace period before tearing engines down under them).
	wedged error

	// commitMu guards the commit-subscription list (Subscribe/Close run on
	// consumer goroutines; signaling runs on the coordinator goroutine).
	commitMu   sync.Mutex
	commitSubs []*CommitSub
}

// CommitSub is a live subscription to the cluster's tick commits, the
// multi-node mirror of engine.TickSub's commit signal: a tick commits when
// every node has applied it, and whenever the coordinator sees the slowest
// node advance (in Tick and Join) each subscriber receives the newest
// committed tick on C. The channel holds at most one pending value — a slow
// consumer sees the newest tick, not a backlog — so consumers that must
// process every tick (the session gateway's delta fan-out) keep their own
// queue of pending ticks and drain it up to the signaled value.
type CommitSub struct {
	// C receives the latest committed tick.
	C <-chan uint64
	c chan uint64
	l *Cluster
}

// Close cancels the subscription.
func (s *CommitSub) Close() {
	c := s.l
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	for i, sub := range c.commitSubs {
		if sub == s {
			c.commitSubs = append(c.commitSubs[:i], c.commitSubs[i+1:]...)
			break
		}
	}
}

// signal publishes tick on the coalescing channel without ever blocking.
func (s *CommitSub) signal(tick uint64) {
	for {
		select {
		case s.c <- tick:
			return
		default:
		}
		select {
		case <-s.c: // drop the stale value, then retry the send
		default:
		}
	}
}

// SubscribeCommits registers a commit subscription. Like the engine's
// SubscribeCommits it carries no log-retention semantics — the cluster's WALs
// belong to its nodes — so it works on any cluster and never delays pruning.
func (c *Cluster) SubscribeCommits() *CommitSub {
	s := &CommitSub{c: make(chan uint64, 1), l: c}
	s.C = s.c
	c.commitMu.Lock()
	c.commitSubs = append(c.commitSubs, s)
	c.commitMu.Unlock()
	return s
}

// notifyCommit signals every commit subscriber that tick committed. Called
// on the coordinator goroutine.
func (c *Cluster) notifyCommit(tick uint64) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	for _, s := range c.commitSubs {
		s.signal(tick)
	}
}

// New creates a fresh cluster: N empty node directories under opts.Dir, a
// uniform partition map, and the initial manifest.
func New(opts Options) (*Cluster, error) {
	if err := opts.Table.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, errors.New("cluster: Dir required")
	}
	if err := opts.check(); err != nil {
		return nil, err
	}
	m := Uniform(opts.Table.NumObjects(), opts.Nodes)
	routing, err := NewRouting(m, 0)
	if err != nil {
		return nil, err
	}
	c, err := build(opts, routing, 0, nil, func(i int, dir string) (*engine.Engine, error) {
		return engine.Open(nodeEngineOptions(opts, dir))
	})
	if err != nil {
		return nil, err
	}
	if err := c.writeManifest(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// nodeEngineOptions is the per-node engine configuration.
func nodeEngineOptions(opts Options, dir string) engine.Options {
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	return engine.Options{
		Table: opts.Table, Dir: dir, Mode: opts.Mode, Shards: shards,
		DiskBytesPerSec: opts.DiskBytesPerSec, SyncEveryTick: opts.SyncEveryTick,
		DeviceFactory: opts.DeviceFactory,
	}
}

// build assembles a Cluster around an open function (fresh Open for New,
// the recovered engines for Recover), one node per partition-map member,
// every node having applied tick ticks and cuts the manifest's recorded
// checkpoints; it starts the per-node apply workers.
func build(opts Options, routing *Routing, tick uint64, cuts []NodeCut,
	open func(i int, dir string) (*engine.Engine, error)) (*Cluster, error) {
	n := routing.Current().NumNodes
	c := &Cluster{
		opts:        opts,
		routing:     routing,
		tick:        tick,
		window:      uint64(opts.MaxSkew),
		cellsPerObj: uint32(opts.Table.CellsPerObject()),
		ring:        make([]tickBufs, opts.MaxSkew+1),
		applied:     make([]uint64, n),
		errs:        make([]error, n),
		committed:   tick,
		pending:     make(map[uint64][]pendingMsg),
		cuts:        make(map[int]NodeCut, n),
	}
	c.cond = sync.NewCond(&c.mu)
	for _, cut := range cuts {
		c.cuts[cut.Node] = cut
	}
	for i := range c.ring {
		c.ring[i] = tickBufs{perNode: make([][]wal.Update, n), envs: make([][]engine.Envelope, n)}
	}
	for i := 0; i < n; i++ {
		dir := NodeDir(opts.Dir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.closeNodes()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		e, err := open(i, dir)
		if err != nil {
			c.closeNodes()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &Node{Index: i, Dir: dir, E: e})
		c.applied[i] = tick
	}
	c.work = make([]chan workItem, n)
	for i := range c.work {
		// Capacity MaxSkew+1: when tick D is dispatched every node has applied
		// D-MaxSkew-1, so at most MaxSkew dispatched-but-unapplied ticks are
		// queued ahead of it and the send never blocks the coordinator.
		c.work[i] = make(chan workItem, opts.MaxSkew+1)
		c.wg.Add(1)
		go c.worker(i, c.work[i])
	}
	return c, nil
}

// worker is node i's apply loop: ticks apply strictly in dispatch order, and
// each completion is published under the mutex so the coordinator's wait
// can make progress. A logged world's ticks are in the node's log already;
// a barrier world's single envelope is logged as the node applies it.
func (c *Cluster) worker(i int, ch <-chan workItem) {
	defer c.wg.Done()
	n := c.nodes[i]
	logged := c.opts.logged()
	for item := range ch {
		if c.opts.BeforeApply != nil {
			c.opts.BeforeApply(i, item.tick)
		}
		c.mu.Lock()
		dead := c.crashed || c.errs[i] != nil
		c.mu.Unlock()
		if dead {
			continue // drain: a crashed or failed node drops its queue
		}
		var err error
		if logged {
			err = n.E.ApplyTickEnvelopes(item.envs)
		} else {
			err = n.E.ApplyTick(item.envs[0].Updates)
		}
		if err == nil && c.opts.Emit != nil {
			c.emit(i, item.tick)
		}
		if err == nil && c.cutDue(i, item.tick) {
			switch err = c.cutNode(i, item.tick); {
			case err == nil:
				err = c.writeManifest()
			case errors.Is(err, wal.ErrAhead):
				// A degraded node behind its log: its anchor, and so this
				// cut, waits for a tick end where it has caught up.
				err = nil
			}
		}
		c.mu.Lock()
		if err != nil {
			c.errs[i] = fmt.Errorf("cluster: node %d tick %d: %w", i, item.tick, err)
		} else {
			c.applied[i] = item.tick + 1
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// cutDue reports whether node i's uncoordinated checkpoint schedule fires
// after applying tick: every CheckpointEvery ticks, offset per node so no
// two nodes cut at the same tick (uncoordinated by construction).
func (c *Cluster) cutDue(i int, tick uint64) bool {
	every := uint64(max(c.opts.CheckpointEvery, 0))
	if every == 0 {
		return false
	}
	offset := uint64(i) * every / uint64(len(c.nodes)) % every
	return (tick+1+offset)%every == 0
}

// cutNode checkpoints node i as of asof and records the cut in memory; the
// caller writes the manifest. The caller must be the engine's mutator at
// that moment: the node's own worker (the scheduled path) or CheckpointWorld
// with the workers drained.
func (c *Cluster) cutNode(i int, asof uint64) error {
	info, err := c.nodes[i].E.CheckpointAsOf(asof)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.cuts[i] = NodeCut{Node: i, Epoch: info.Epoch, AsOfTick: info.AsOfTick}
	c.mu.Unlock()
	return nil
}

// NodeDir returns node i's directory under a cluster root.
func NodeDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("node-%d", i))
}

// Nodes returns the cluster members.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Routing returns the live partition map.
func (c *Cluster) Routing() *Routing { return c.routing }

// NextTick returns the tick the next Tick call will dispatch. At MaxSkew = 0
// every node's engine agrees (the barrier invariant).
func (c *Cluster) NextTick() uint64 { return c.tick }

// AppliedTick returns the number of ticks node i has applied (its engine's
// next tick). Safe from any goroutine.
func (c *Cluster) AppliedTick(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied[i]
}

// Table returns the world geometry.
func (c *Cluster) Table() gamestate.Table { return c.opts.Table }

// ready is the precondition every coordinator operation shares.
func (c *Cluster) ready() error {
	if c.closed {
		return errors.New("cluster: closed")
	}
	return c.wedged
}

// Tick dispatches one world tick: route the batch by ownership at this tick,
// and in a logged world merge in the cross-partition messages due and log
// every envelope to its destination's log; then hand the tick to the node
// workers, and return once every node has applied the tick MaxSkew
// behind this one — at MaxSkew = 0, this tick itself (the barrier).
func (c *Cluster) Tick(batch []wal.Update) error {
	if err := c.ready(); err != nil {
		return err
	}
	tick := c.tick
	bufs := &c.ring[tick%uint64(len(c.ring))]
	bufs.perNode = RouteTick(c.routing.Current(), c.cellsPerObj, batch, bufs.perNode)
	for i := range c.nodes {
		bufs.envs[i] = append(bufs.envs[i][:0], engine.Envelope{Origin: -1, OriginTick: tick, Updates: bufs.perNode[i]})
	}
	if c.opts.logged() {
		if err := c.logTick(tick, bufs.envs); err != nil {
			return err
		}
	}
	for i, ch := range c.work {
		ch <- workItem{tick: tick, envs: bufs.envs[i]}
	}
	c.tick++
	return c.await("tick", tick, func(i int) bool { return c.applied[i]+c.window > tick })
}

// await blocks the coordinator until reached holds for every node — the one
// place it waits on node progress. It fails with the first node failure,
// and, when Options.BarrierTimeout is set, with a *TimeoutError naming the
// nodes still short; the cluster then wedges: the stragglers still own their
// engines, so the only safe continuations are the typed error and a Close
// that grants them a grace period. reached runs under c.mu. On the way out
// it signals commit subscribers if the slowest node advanced.
func (c *Cluster) await(op string, tick uint64, reached func(i int) bool) error {
	t0 := time.Now()
	var expired *bool // allocated only when a deadline is set: the unbounded tick path stays allocation-free
	if c.opts.BarrierTimeout > 0 {
		expired = new(bool)
		timer := time.AfterFunc(c.opts.BarrierTimeout, func() {
			c.mu.Lock()
			*expired = true
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer timer.Stop()
	}
	c.mu.Lock()
	var err error
	for {
		c.waiting = c.waiting[:0]
		for i := range c.nodes {
			if err == nil {
				err = c.errs[i]
			}
			if !reached(i) {
				c.waiting = append(c.waiting, i)
			}
		}
		if err != nil || len(c.waiting) == 0 {
			break
		}
		if expired != nil && *expired {
			c.wedged = &TimeoutError{Op: op, Tick: tick, Waiting: slices.Clone(c.waiting), Wait: c.opts.BarrierTimeout}
			err = c.wedged
			break
		}
		c.cond.Wait()
	}
	slowest := c.applied[0]
	for _, a := range c.applied[1:] {
		slowest = min(slowest, a)
	}
	commit := slowest > c.committed
	c.committed = max(c.committed, slowest)
	c.mu.Unlock()
	// Checkpoint waits are deliberately excluded from the accumulator: it
	// measures the per-tick serialization cost of the policy, not the cost of
	// a coordinated cut.
	if op != "checkpoint" {
		d := time.Since(t0)
		c.barrierWait += d
		telBarrierWait.ObserveDuration(d)
	}
	if commit {
		c.notifyCommit(slowest - 1)
	}
	return err
}

// Join blocks until every dispatched tick has applied on its node — the
// quiescence point ReadWorld and a graceful Close need at MaxSkew > 0 (at 0
// every Tick already returns there). The drain counts toward BarrierWait.
func (c *Cluster) Join() error {
	if err := c.ready(); err != nil {
		return err
	}
	return c.drain("join")
}

func (c *Cluster) drain(op string) error {
	return c.await(op, c.tick, func(i int) bool { return c.applied[i] >= c.tick })
}

// BarrierWait returns the cumulative wall time the coordinator has spent
// blocked on node progress in Tick and Join — the serialization cost of the
// coordination policy, at every window. Checkpoint waits are excluded. The
// clusterbench window axis reports it per tick.
func (c *Cluster) BarrierWait() time.Duration { return c.barrierWait }

// CheckpointWorld performs a coordinated world checkpoint: the coordinator
// drains every dispatched tick, picks the cut — the last applied tick — and
// every node checkpoints as-of that exact tick, concurrently. Every node
// has applied exactly the ticks through the cut, so the per-node images form
// one globally consistent world state; the manifest records each image's
// identity so whole-world recovery knows what it is restoring. (For cuts at
// different ticks there is the worker-side CheckpointEvery schedule.)
func (c *Cluster) CheckpointWorld() (*Manifest, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := c.drain("checkpoint"); err != nil {
		return nil, err
	}
	if c.tick == 0 {
		return nil, errors.New("cluster: no ticks applied")
	}
	cut := c.tick - 1
	ckptStart := time.Now()
	errs := make([]error, len(c.nodes))
	done := make([]bool, len(c.nodes))
	for i := range c.nodes {
		c.wg.Add(1) // so a wedged Close grants a timed-out cut its grace too
		go func() {
			defer c.wg.Done()
			err := c.cutNode(i, cut)
			c.mu.Lock()
			errs[i], done[i] = err, true
			c.cond.Broadcast()
			c.mu.Unlock()
		}()
	}
	if err := c.await("checkpoint", cut, func(i int) bool { return done[i] }); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d checkpoint: %w", i, err)
		}
	}
	if err := c.writeManifest(); err != nil {
		return nil, err
	}
	wall := time.Since(ckptStart)
	telCkptWall.ObserveDuration(wall)
	telCkptLast.Set(wall.Nanoseconds())
	telemetry.RecordSpan("cluster/checkpoint", ckptStart, ckptStart.Add(wall),
		telemetry.Int("cut_tick", int64(cut)), telemetry.Int("nodes", int64(len(c.nodes))))
	return c.manifest(), nil
}

// ReadWorld assembles the world state into dst (StateBytes() long): each
// node contributes exactly the ranges it owns under the current map. It is
// the merge the per-cell equivalence harness compares against a single-node
// reference. At MaxSkew > 0 call it quiesced (after Join): mid-flight the
// partitions are legitimately at different ticks and the merge would be
// torn.
func (c *Cluster) ReadWorld(dst []byte) error {
	want := int(c.opts.Table.StateBytes())
	if len(dst) != want {
		return fmt.Errorf("cluster: world buffer %d bytes, want %d", len(dst), want)
	}
	m := c.routing.Current()
	sz := c.opts.Table.ObjSize
	for i, n := range c.nodes {
		slab := n.E.Store().Slab()
		for _, r := range m.NodeRanges(i) {
			copy(dst[r.Lo*sz:r.Hi*sz], slab[r.Lo*sz:r.Hi*sz])
		}
	}
	return nil
}

// Crash simulates a crash: queued-but-unapplied ticks are dropped (each
// worker abandons its backlog), then logs and engines shut down. At
// MaxSkew > 0 the nodes end at genuinely different ticks — the state
// Recover's cut reconstruction exists for: the node logs keep every
// dispatched tick, so recovery rolls the laggards forward to the cut
// instead of refusing a torn world.
func (c *Cluster) Crash() error { return c.shutdown(true) }

// Close drains every dispatched tick, stops the apply workers and closes every node engine. After a wait timeout it
// cannot drain: it shuts down like Crash, granting the stragglers one more
// timeout's grace before closing engines they may still be applying into.
func (c *Cluster) Close() error { return c.shutdown(false) }

func (c *Cluster) shutdown(crash bool) error {
	if c.closed {
		return nil
	}
	c.closed = true
	var drainErr error
	if !crash && c.wedged == nil {
		drainErr = c.drain("join")
	}
	c.mu.Lock()
	c.crashed = true // whatever is still queued is abandoned
	c.mu.Unlock()
	for _, ch := range c.work {
		close(ch)
	}
	stopped := make(chan struct{})
	go func() { c.wg.Wait(); close(stopped) }()
	var grace <-chan time.Time // nil: the workers exit as soon as they are idle
	if c.wedged != nil {
		grace = time.After(c.opts.BarrierTimeout)
	}
	select {
	case <-stopped:
	case <-grace:
	}
	return errors.Join(drainErr, c.closeNodes())
}

// closeNodes closes every opened node's engine.
func (c *Cluster) closeNodes() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.E.Close())
	}
	return errors.Join(errs...)
}
