// Package session is the connection tier in front of the tick engine: the
// piece a real MMO deployment puts between clients and authoritative state,
// and the piece the paper's evaluation leaves out (its updates all originate
// from in-process traces). The service-decomposition argument of the
// service-oriented-MMOG paper and the state-management survey (PAPERS.md)
// both place this layer — session handling, intent aggregation, interest
// management — in its own tier, and that is what this package builds:
//
//	clients ── intents ──► Gateway ── canonical tick batch ──► World (engine / cluster)
//	clients ◄── interest-managed deltas ── commit subscription ◄─┘
//
// A Gateway accepts many concurrent client sessions (in-process for the
// benchmarks and tests, TCP framed like internal/replication for real
// deployments), batches each tick's staged client intents into ONE
// deterministic update set, applies it through a World (a single engine or
// the multi-node cluster, which routes it through the partition map), and
// pushes each tick's changes back out filtered by area of interest: every
// session subscribes to a window of the object space at the cluster's
// 64-object slot grain, and receives only the updates that land in it.
//
// Determinism contract (the property the crash-equivalence harness rests
// on): the per-tick update set is the concatenation of the staged intents of
// all sessions in ascending session-ID order, each session's intents in
// submission order. Two gateways fed the same per-tick intents therefore
// build byte-identical update sets — and because one cell always belongs to
// one object, and intents for one object come from one client, per-cell
// update order in the canonical set equals per-client submission order. A
// session-driven world is byte-identical to a trace-driven one whenever the
// trace is decomposed into per-client intents (see Driver).
package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// World is the authoritative state a gateway fronts: something that applies
// one tick's update batch and exposes the tick-commit subscription the delta
// fan-out rides. EngineWorld and ClusterWorld adapt the two deployments.
type World interface {
	// Table is the state geometry client intents address.
	Table() gamestate.Table
	// Tick applies one update batch as the next world tick.
	Tick(batch []wal.Update) error
	// NextTick is the tick the next Tick call will apply.
	NextTick() uint64
	// SubscribeCommits returns a coalescing channel of committed ticks and a
	// cancel function (engine.TickSub / cluster.CommitSub semantics: the
	// channel holds at most the newest committed tick).
	SubscribeCommits() (commits <-chan uint64, cancel func())
}

// EngineWorld fronts a single engine: ticks apply through ApplyTick and the
// delta fan-out rides engine.SubscribeCommits.
type EngineWorld struct {
	E *engine.Engine
}

// Table implements World.
func (w EngineWorld) Table() gamestate.Table { return w.E.Table() }

// Tick implements World.
func (w EngineWorld) Tick(batch []wal.Update) error { return w.E.ApplyTick(batch) }

// NextTick implements World.
func (w EngineWorld) NextTick() uint64 { return w.E.NextTick() }

// SubscribeCommits implements World.
func (w EngineWorld) SubscribeCommits() (<-chan uint64, func()) {
	s := w.E.SubscribeCommits()
	return s.C, s.Close
}

// ClusterWorld fronts a multi-node cluster: ticks route through the
// partition map to their owner nodes behind the tick barrier, and the delta
// fan-out rides cluster.SubscribeCommits.
type ClusterWorld struct {
	C *cluster.Cluster
}

// Table implements World.
func (w ClusterWorld) Table() gamestate.Table { return w.C.Table() }

// Tick implements World.
func (w ClusterWorld) Tick(batch []wal.Update) error { return w.C.Tick(batch) }

// NextTick implements World.
func (w ClusterWorld) NextTick() uint64 { return w.C.NextTick() }

// SubscribeCommits implements World.
func (w ClusterWorld) SubscribeCommits() (<-chan uint64, func()) {
	s := w.C.SubscribeCommits()
	return s.C, s.Close
}

// Range is a half-open object range [Lo, Hi): a session's area of interest,
// or the span of objects a simulated client controls.
type Range struct {
	Lo, Hi int
}

// Delta is one tick's worth of changes inside a session's interest window:
// the updates of the committed tick whose objects fall in the window's
// slots, slot-major and in canonical batch order within a slot — so the
// updates of one cell, hence of one object, keep their canonical order.
// Values are final cell states, so a dropped delta is healed by any later
// delta touching the same cells.
//
// Updates is READ-ONLY: a view into the tick's one slot-bucketed array,
// shared with every session whose window overlaps. Its capacity equals its
// length, so an append cannot reach a neighbour's view.
type Delta struct {
	Tick    uint64
	Updates []wal.Update
}

// Options configures a Gateway.
type Options struct {
	// World is the authoritative state to front. Required.
	World World
	// MaxStaged bounds the intents one session may stage between ticks;
	// Submit fails beyond it (a misbehaving client must not grow the tick
	// batch without bound). Default 1 << 14.
	MaxStaged int
	// DeltaBuffer is each session's delta queue capacity. When a slow
	// consumer fills it the oldest delta is dropped and counted — the world
	// tick must never block on one client. Default 256.
	DeltaBuffer int
}

// Stats aggregates gateway activity.
type Stats struct {
	// Ticks is the number of Step calls that committed.
	Ticks uint64
	// Intents is the total updates batched into committed ticks.
	Intents uint64
	// Deltas is the total deltas delivered into session queues.
	Deltas uint64
	// Dropped is the total deltas dropped on full session queues.
	Dropped uint64
}

// pendingTick is one built-and-submitted tick awaiting delta fan-out.
type pendingTick struct {
	tick   uint64
	batch  []wal.Update
	staged time.Time
}

// Gateway is the connection tier: it owns the session set, builds each
// tick's canonical update set, drives the world, and fans interest-managed
// deltas back out on the world's commit signal. One goroutine calls Step
// (the tick loop); Connect/Submit/Close are safe from any goroutine.
type Gateway struct {
	opts        Options
	world       World
	table       gamestate.Table
	cellsPerObj uint32

	mu       sync.Mutex
	sessions []*Session // ascending ID: the canonical batch order
	byID     map[uint64]*Session
	interest *interestIndex

	pendMu  sync.Mutex
	pending []pendingTick

	commits <-chan uint64
	cancel  func()
	stop    chan struct{}
	done    chan struct{}

	// off is the pump's fan-out scratch: the bucketed batch's slot prefix
	// table (slot s starts at off[s] and ends at off[s+1]).
	off []int

	// delivered is the fan-out watermark: ticks [0, delivered) have been
	// fanned out to every interested session queue. waitCh is replaced (and
	// the old one closed) on every advance — a broadcast AwaitDelivered can
	// select on with a deadline.
	wMu       sync.Mutex
	delivered uint64
	waitCh    chan struct{}

	ticks   atomic.Uint64
	intents atomic.Uint64
	deltas  atomic.Uint64
	dropped atomic.Uint64

	closed bool
}

// NewGateway opens a gateway over a world and starts its delta fan-out pump.
func NewGateway(opts Options) (*Gateway, error) {
	if opts.World == nil {
		return nil, errors.New("session: Options.World required")
	}
	if opts.MaxStaged <= 0 {
		opts.MaxStaged = 1 << 14
	}
	if opts.DeltaBuffer <= 0 {
		opts.DeltaBuffer = 256
	}
	table := opts.World.Table()
	if err := table.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{
		opts:        opts,
		world:       opts.World,
		table:       table,
		cellsPerObj: uint32(table.CellsPerObject()),
		byID:        map[uint64]*Session{},
		interest:    newInterestIndex(table.NumObjects()),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		waitCh:      make(chan struct{}),
		delivered:   opts.World.NextTick(), // a recovered world owes no old deltas
	}
	g.off = make([]int, len(g.interest.subs)+2)
	g.commits, g.cancel = opts.World.SubscribeCommits()
	go g.pump()
	return g, nil
}

// Table returns the world geometry client intents address.
func (g *Gateway) Table() gamestate.Table { return g.table }

// Sessions returns the number of connected sessions.
func (g *Gateway) Sessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Ticks:   g.ticks.Load(),
		Intents: g.intents.Load(),
		Deltas:  g.deltas.Load(),
		Dropped: g.dropped.Load(),
	}
}

// Connect registers a session: id is its canonical ordering key (unique
// among live sessions; a reconnect reuses the id after Close), interest the
// object window its deltas are filtered to. The window is bucketed at the
// cluster partition grain (cluster.SlotSize objects), so interest slots and
// partition slots are the same unit.
func (g *Gateway) Connect(id uint64, interest Range) (*Session, error) {
	if interest.Lo < 0 || interest.Hi > g.table.NumObjects() || interest.Lo >= interest.Hi {
		return nil, fmt.Errorf("session: interest [%d,%d) outside the %d-object world",
			interest.Lo, interest.Hi, g.table.NumObjects())
	}
	s := &Session{
		id:       id,
		gw:       g,
		interest: interest,
		deltas:   make(chan Delta, g.opts.DeltaBuffer),
		gone:     make(chan struct{}),
	}
	s.lo, s.hi = slotRange(interest)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, errors.New("session: gateway closed")
	}
	if _, dup := g.byID[id]; dup {
		return nil, fmt.Errorf("session: id %d already connected", id)
	}
	g.byID[id] = s
	i := sort.Search(len(g.sessions), func(i int) bool { return g.sessions[i].id >= id })
	g.sessions = append(g.sessions, nil)
	copy(g.sessions[i+1:], g.sessions[i:])
	g.sessions[i] = s
	g.interest.add(s)
	telSessions.Set(int64(len(g.sessions)))
	return s, nil
}

// Step builds and applies one world tick: drain every session's staged
// intents in canonical order (ascending session ID, submission order within
// a session) into one batch, apply it through the world, and hand the batch
// to the delta pump. It returns the canonical update set — callers feeding a
// reference engine may read it but must not modify it (the pump shares it).
// Call Step from one tick-loop goroutine.
func (g *Gateway) Step() ([]wal.Update, error) {
	g.mu.Lock()
	n := 0
	for _, s := range g.sessions {
		n += len(s.staged)
	}
	batch := make([]wal.Update, 0, n)
	for _, s := range g.sessions {
		batch = append(batch, s.staged...)
		s.staged = s.staged[:0]
	}
	g.mu.Unlock()

	tick := g.world.NextTick()
	// Queue before Tick: the commit signal must find the batch pending even
	// if it outraces Tick's return.
	g.pendMu.Lock()
	g.pending = append(g.pending, pendingTick{tick: tick, batch: batch, staged: time.Now()})
	g.pendMu.Unlock()
	if err := g.world.Tick(batch); err != nil {
		g.pendMu.Lock()
		if len(g.pending) > 0 && g.pending[len(g.pending)-1].tick == tick {
			g.pending = g.pending[:len(g.pending)-1]
		}
		g.pendMu.Unlock()
		return nil, err
	}
	g.ticks.Add(1)
	g.intents.Add(uint64(len(batch)))
	return batch, nil
}

// pump is the delta fan-out loop: woken by the world's coalescing commit
// signal, it fans out every pending tick up to the signaled one, then
// advances the delivered watermark.
func (g *Gateway) pump() {
	defer close(g.done)
	for {
		select {
		case <-g.stop:
			return
		case tick := <-g.commits:
			g.fanOutThrough(tick)
		}
	}
}

// fanOutThrough fans out every pending tick at or below tick, in order.
func (g *Gateway) fanOutThrough(tick uint64) {
	for {
		g.pendMu.Lock()
		if len(g.pending) == 0 || g.pending[0].tick > tick {
			g.pendMu.Unlock()
			return
		}
		p := g.pending[0]
		copy(g.pending, g.pending[1:])
		g.pending = g.pending[:len(g.pending)-1]
		g.pendMu.Unlock()
		g.fanOut(p)
	}
}

// fanOut delivers one committed tick's updates to every session whose
// interest window they touch, one Delta per (session, tick). The batch is
// stable-counting-sorted by slot into one fresh array; a window is a
// contiguous slot range, so a session's delta is a sub-slice of that array,
// and the sessions are found by walking the non-empty slots' interest lists:
// O(updates + slots + touched sessions). Only the pump goroutine calls it.
func (g *Gateway) fanOut(p pendingTick) {
	var start time.Time
	if telemetry.Enabled() {
		start = time.Now()
	}
	// Count at slot+2, so that after the prefix sum off[s+1] is where slot s
	// starts; placing through off[s+1]++ then leaves off[s] at slot s's start.
	off := g.off
	clear(off)
	for _, u := range p.batch {
		off[int(u.Cell/g.cellsPerObj)>>cluster.SlotShift+2]++
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	bucketed := make([]wal.Update, len(p.batch))
	for _, u := range p.batch {
		at := &off[int(u.Cell/g.cellsPerObj)>>cluster.SlotShift+1]
		bucketed[*at] = u
		*at++
	}

	g.mu.Lock()
	var delivered uint64
	for slot, subs := range g.interest.subs {
		if off[slot] == off[slot+1] {
			continue
		}
		for _, s := range subs {
			if s.mark == p.tick+1 { // +1: zero value must not match tick 0
				continue
			}
			s.mark = p.tick + 1
			lo, hi := off[s.lo], off[s.hi]
			if s.deliver(Delta{Tick: p.tick, Updates: bucketed[lo:hi:hi]}) {
				delivered++
			}
		}
	}
	g.mu.Unlock()
	g.deltas.Add(delivered)
	telIntentVisible.ObserveSince(p.staged)

	g.wMu.Lock()
	g.delivered = p.tick + 1
	close(g.waitCh)
	g.waitCh = make(chan struct{})
	g.wMu.Unlock()
	telFanOut.ObserveSince(start)
}

// Delivered returns the fan-out watermark: every tick below it has been
// fanned out to all interested session queues.
func (g *Gateway) Delivered() uint64 {
	g.wMu.Lock()
	defer g.wMu.Unlock()
	return g.delivered
}

// AwaitDelivered blocks until tick has been fanned out (Delivered > tick) or
// the timeout expires. It is how a driver measures intent→visible latency:
// stage, Step, AwaitDelivered — the elapsed wall is the full pipeline from
// intent to the delta landing in every interested session's queue.
func (g *Gateway) AwaitDelivered(tick uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		g.wMu.Lock()
		done := g.delivered > tick
		ch := g.waitCh
		g.wMu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("session: tick %d not delivered within %v (watermark %d)",
				tick, timeout, g.Delivered())
		}
	}
}

// Close cancels the commit subscription, stops the delta pump, and
// disconnects every session. The world itself stays open — its owner closes
// it (and a cluster crash-equivalence run closes it as a crash).
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	sessions := append([]*Session(nil), g.sessions...)
	g.mu.Unlock()
	g.cancel()
	close(g.stop)
	<-g.done
	for _, s := range sessions {
		s.Close()
	}
	return nil
}

// Session is one connected client: staged intents in, interest-managed
// deltas out.
type Session struct {
	id       uint64
	gw       *Gateway
	interest Range
	lo, hi   int // interest's slot range [lo, hi)

	// staged/mark are guarded by gw.mu; mark dedupes the session per tick
	// fanned out.
	staged []wal.Update
	mark   uint64

	deltas  chan Delta
	gone    chan struct{} // closed on Close: unblocks delta consumers
	dropped atomic.Uint64
	once    sync.Once
}

// ID returns the session's canonical ordering key.
func (s *Session) ID() uint64 { return s.id }

// Submit stages intents for the next tick, in order, after the intents this
// session already staged. Cells must address the world's table.
func (s *Session) Submit(intents []wal.Update) error {
	numCells := uint32(s.gw.table.NumCells())
	for _, u := range intents {
		if u.Cell >= numCells {
			return fmt.Errorf("session %d: intent cell %d outside the %d-cell world", s.id, u.Cell, numCells)
		}
	}
	s.gw.mu.Lock()
	defer s.gw.mu.Unlock()
	select {
	case <-s.gone:
		return fmt.Errorf("session %d: closed", s.id)
	default:
	}
	if len(s.staged)+len(intents) > s.gw.opts.MaxStaged {
		return fmt.Errorf("session %d: staging %d intents exceeds the %d bound",
			s.id, len(s.staged)+len(intents), s.gw.opts.MaxStaged)
	}
	s.staged = append(s.staged, intents...)
	telStagedIntents.Add(uint64(len(intents)))
	return nil
}

// Deltas returns the session's delta queue. Consume it promptly: when the
// queue is full the oldest delta is dropped (and counted in Dropped) so the
// world tick never blocks on a slow client.
func (s *Session) Deltas() <-chan Delta { return s.deltas }

// Gone is closed when the session disconnects; consumers select on it
// alongside Deltas.
func (s *Session) Gone() <-chan struct{} { return s.gone }

// Dropped returns how many deltas were dropped on this session's full queue.
func (s *Session) Dropped() uint64 { return s.dropped.Load() }

// deliver enqueues a delta, dropping the oldest on a full queue. Called
// under gw.mu from the pump. Reports whether d itself was enqueued.
func (s *Session) deliver(d Delta) bool {
	select {
	case <-s.gone:
		return false
	default:
	}
	select {
	case s.deltas <- d:
		return true
	default:
	}
	select {
	case <-s.deltas: // evict the oldest: newest state wins
		s.drop()
	default:
	}
	select {
	case s.deltas <- d:
		return true
	default:
		s.drop()
		return false
	}
}

// drop counts one delta lost on this session's full queue, here and in the
// gateway's totals, so Stats.Dropped is the sum of every session's Dropped.
func (s *Session) drop() {
	s.dropped.Add(1)
	s.gw.dropped.Add(1)
	telEvictions.Add(1)
}

// Close disconnects the session: it leaves the interest index and the
// canonical order, unstaged intents are discarded, and Gone is closed.
// Closing twice is a no-op; a new Connect may then reuse the ID.
func (s *Session) Close() {
	s.once.Do(func() {
		g := s.gw
		g.mu.Lock()
		if g.byID[s.id] == s {
			delete(g.byID, s.id)
			i := sort.Search(len(g.sessions), func(i int) bool { return g.sessions[i].id >= s.id })
			if i < len(g.sessions) && g.sessions[i] == s {
				g.sessions = append(g.sessions[:i], g.sessions[i+1:]...)
			}
			g.interest.remove(s)
			telSessions.Set(int64(len(g.sessions)))
		}
		s.staged = nil
		close(s.gone)
		g.mu.Unlock()
	})
}
