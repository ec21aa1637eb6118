package engine

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
)

// Replication hooks: the engine-side integration points of the warm
// standby (internal/replication). A primary exposes three things to it — its
// newest complete backup image, read under an image pin (ReadImage: the
// bootstrap), a log follower woken by tick commits (LogFollower, so the
// shipper never polls blind) that streams the log from that image's tick
// on, and a log-retention watermark (so segment pruning never deletes
// records a replica does not hold yet). A standby engine is opened with
// OpenStandby, which lands the shipped image and recovers from it like a
// crashed primary, fed with IngestReplicated, and flipped into a primary
// with Promote.

// TickSub is a live subscription to the engine's tick commits: it sends a
// coalesced signal on C carrying the latest committed tick. A LogFollower's
// subscription also reads the log, so while one is open the engine flushes
// the logical log at every tick (making the freshly appended frame visible
// to a wal.Reader following it) and its pruning retains every segment that
// may hold a record at or above the follower's watermark.
type TickSub struct {
	// C receives the latest committed tick. The channel holds at most one
	// pending value: a slow consumer sees the newest tick, not a backlog.
	C    <-chan uint64
	c    chan uint64
	need atomic.Uint64 // first tick this subscriber still needs from the log
	e    *Engine
	// commitOnly marks a SubscribeCommits subscription: it receives the same
	// commit signals but never reads the log, so it neither forces per-tick
	// log flushes nor pins segment pruning.
	commitOnly bool
}

// Close cancels the subscription.
func (s *TickSub) Close() {
	e := s.e
	e.replMu.Lock()
	defer e.replMu.Unlock()
	for i, sub := range e.subs {
		if sub == s {
			e.subs = append(e.subs[:i], e.subs[i+1:]...)
			break
		}
	}
	e.hasSubs.Store(len(e.subs) > 0)
}

// signal publishes tick on the coalescing channel without ever blocking.
func (s *TickSub) signal(tick uint64) {
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

// SubscribeCommits registers a commit-only tick subscription: C delivers the
// latest committed tick exactly like a LogFollower's subscription, but the
// subscriber declares it will never read the log — so the engine does not
// flush the log on its behalf, the subscription works on any engine
// (InMemory included), and log pruning ignores it (its retention watermark
// starts at "needs nothing"). It is the session gateway's
// delta fan-out hook: the gateway rides the same commit signal the
// replication shipper does, without the durability coupling.
func (e *Engine) SubscribeCommits() *TickSub { return e.subscribe(true) }

func (e *Engine) subscribe(commitOnly bool) *TickSub {
	s := &TickSub{c: make(chan uint64, 1), e: e, commitOnly: commitOnly}
	s.C = s.c
	if commitOnly {
		s.need.Store(^uint64(0))
	}
	e.replMu.Lock()
	e.subs = append(e.subs, s)
	e.hasSubs.Store(true)
	e.replMu.Unlock()
	return s
}

// notifySubs flushes the log (a following reader's visibility barrier) and signals
// every subscriber that tick committed. Called at the end of each applied
// or ingested tick, on the mutator goroutine, after the tick has fully
// committed — so a flush failure must NOT fail the tick (the caller's
// error contract is "error ⇒ the tick was not applied"). It is safe to
// swallow here: bufio's write error is sticky, so the very next Append
// surfaces it before any further state changes; until then the shipper
// simply sees no new frames.
func (e *Engine) notifySubs(tick uint64) {
	if !e.hasSubs.Load() {
		return
	}
	e.replMu.Lock()
	defer e.replMu.Unlock()
	if len(e.subs) == 0 {
		return
	}
	if e.log != nil {
		// Flush for log followers only: a commit-only subscriber never tails
		// the log, so a gateway-only engine keeps the buffered append path.
		for _, s := range e.subs {
			if !s.commitOnly {
				_ = e.log.Flush()
				break
			}
		}
	}
	for _, s := range e.subs {
		s.signal(tick)
	}
}

// idlePoll is a LogFollower's fallback wake-up when no tick-commit signal
// arrives (the engine is idle, or a record was appended before the signal
// the follower last saw).
const idlePoll = 5 * time.Millisecond

// LogFollower tail-follows the engine's log and hands back whole committed
// ticks: the WAL reader under the standby Shipper. A tick's records are held until a later tick's
// record appears or the commit watermark covers the tick, so a consumer
// never sees a torn tick — a range install and the batch logged at the same
// tick always arrive together. Its TickSub pins log retention at the
// watermark the consumer publishes with NeedFrom.
type LogFollower struct {
	sub  *TickSub
	dir  string
	r    *wal.Reader // opened by the first Next
	done uint64      // ticks below it are committed, so all their records are readable
	cur  uint64      // tick of held
	held [][]byte    // records of cur, copied out of the reader's mapping
	out  [][]byte    // the tick the last Next returned, recycled
}

// FollowLog subscribes to e's tick commits and returns a follower of its
// log. It requires a durable log (an InMemory engine has none). Until the
// consumer publishes a NeedFrom watermark, pruning retains the whole log on
// its behalf. The commit watermark starts at the last tick committed before
// the call (the log is flushed under the tick lock so those records are
// readable), so a tick committed before the subscription is yielded even if
// the engine never commits another. Close it before closing e.
func (e *Engine) FollowLog() (*LogFollower, error) {
	if e.log == nil {
		return nil, errors.New("engine: replication requires a durable log (not InMemory)")
	}
	sub := e.subscribe(false)
	e.tickMu.Lock()
	err := e.log.Flush()
	done := e.tick
	e.tickMu.Unlock()
	if err != nil {
		sub.Close()
		return nil, err
	}
	return &LogFollower{sub: sub, dir: e.walDir, done: done}, nil
}

// Next returns the next whole committed tick at or above floor, the first
// tick the caller's image does not cover (pass the same floor every call
// until Restart).
// recs are copies of the tick's log record bodies, in log order, valid
// until the next call. It blocks until a tick is whole, and returns
// ok=false once stop is closed.
func (f *LogFollower) Next(floor uint64, stop <-chan struct{}) (tick uint64, recs [][]byte, ok bool, err error) {
	if f.r == nil {
		if f.r, err = wal.NewReader(f.dir, floor); err != nil {
			return 0, nil, false, err
		}
	}
	for {
		select {
		case <-stop:
			return 0, nil, false, nil
		default:
		}
		// Every record read so far is copied out or skipped: its mapping can
		// be reused.
		f.r.Release(f.r.Records())
		t, payload, err := f.r.Next()
		switch {
		case err == io.EOF: // caught up with the writer
			if len(f.held) > 0 && f.cur < f.done {
				return f.cur, f.yield(), true, nil
			}
		case err != nil:
			return 0, nil, false, err
		case t < floor:
			continue
		case len(f.held) > 0 && t != f.cur:
			// A later tick's record proves cur whole.
			tick, recs = f.cur, f.yield()
			f.cur, f.held = t, appendCopy(f.held, payload)
			return tick, recs, true, nil
		default:
			f.cur, f.held = t, appendCopy(f.held, payload)
			continue
		}
		select {
		case <-stop:
			return 0, nil, false, nil
		case c := <-f.sub.C:
			f.done = max(f.done, c+1)
		case <-time.After(idlePoll):
		}
	}
}

// yield hands the held records out and recycles the previous tick's slices
// as the new hold.
func (f *LogFollower) yield() [][]byte {
	f.out, f.held = f.held, f.out[:0]
	return f.out
}

// appendCopy appends a copy of p to recs, reusing a recycled slice's bytes
// when one is there.
func appendCopy(recs [][]byte, p []byte) [][]byte {
	if n := len(recs); n < cap(recs) {
		recs = recs[:n+1]
		recs[n] = append(recs[n][:0], p...)
		return recs
	}
	return append(recs, append([]byte(nil), p...))
}

// Restart drops the read position and the held records, so the next Next
// reads the log again from its floor: the consumer's peer lost what it was
// sent. The commit watermark is kept, so a tick committed before the
// restart is still yielded on an idle engine.
func (f *LogFollower) Restart() {
	if f.r != nil {
		f.r.Close() //nolint:errcheck // read-only
		f.r = nil
	}
	f.held = f.held[:0]
}

// NeedFrom publishes that the consumer no longer needs log records below
// tick (they were streamed and acknowledged, or are covered by the bootstrap
// image). Pruning may then reclaim segments wholly below the watermark.
func (f *LogFollower) NeedFrom(tick uint64) { f.sub.need.Store(tick) }

// Close cancels the subscription and releases the reader.
func (f *LogFollower) Close() {
	f.sub.Close()
	if f.r != nil {
		f.r.Close() //nolint:errcheck // read-only
	}
}

// retainFrom folds the subscribers' watermarks into a prune floor: the log
// must keep every record at or above the returned tick.
func (e *Engine) retainFrom(keepFrom uint64) uint64 {
	if !e.hasSubs.Load() {
		return keepFrom
	}
	e.replMu.Lock()
	defer e.replMu.Unlock()
	for _, s := range e.subs {
		if n := s.need.Load(); n < keepFrom {
			keepFrom = n
		}
	}
	return keepFrom
}

// ReadImage reads the engine's newest complete backup image — the one
// recovery would restore, the image restored at open included — into
// memory: the standby bootstrap, which streams the log from the image's
// AsOfTick+1 on. It returns the zero Image when the engine has none. While
// it reads, an image pin holds checkpoint cuts off that backup (endTick
// skips them, so no tick waits); when the only complete image is being
// overwritten (a degraded engine's survivor mid-flush) it waits for that
// flush. Safe to call from any goroutine while the engine ticks.
func (e *Engine) ReadImage() (disk.Image, error) {
	b := e.cp.pin()
	if b < 0 {
		return disk.Image{}, nil
	}
	defer e.cp.unpin()
	return e.backups[b].ReadImage()
}

// WALDir returns the directory of the engine's logical log, or "" for an
// InMemory engine. Tail-follow shippers read it directly.
func (e *Engine) WALDir() string { return e.walDir }

// IsStandby reports whether the engine is an unpromoted replication
// standby (normal ticking is rejected until Promote).
func (e *Engine) IsStandby() bool {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	return e.standby
}

// OpenStandby opens a warm-standby engine in opts.Dir, which must hold no
// state: a standby inherits its identity from the stream. install, when
// non-nil, writes the primary's shipped image onto the directory's first
// backup (see disk.Install); the engine then opens through RecoverFrom like
// any crashed primary, at the image's AsOfTick+1, so it is durable from the
// first ingested tick: a standby that crashes mid-stream restores that (or a
// newer own) image and replays its own log. Without install it starts at
// tick 0. The returned engine accepts only IngestReplicated until Promote.
func OpenStandby(opts Options, install func(*disk.Backup) error) (*Engine, error) {
	if opts.InMemory && install != nil {
		return nil, errors.New("engine: a standby bootstrapped from an image needs a directory (not InMemory)")
	}
	if used, err := HoldsState(opts); err != nil {
		return nil, err
	} else if used {
		return nil, fmt.Errorf("engine: standby dir %s holds previous state; a standby starts in an empty directory", opts.Dir)
	}
	e, err := Open(opts)
	if err != nil {
		return nil, err
	}
	if install != nil {
		err = install(e.backups[0])
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			e, _, err = RecoverFrom(opts)
		}
		if err != nil {
			return nil, err
		}
	}
	e.standby = true
	return e, nil
}

// IngestReplicated applies one replicated tick record on the standby: the
// already-encoded record body (kind tag included, exactly as framed by the
// primary's log) is appended to the standby's own log and its effects
// applied through the checkpointer — so the standby runs its own
// checkpoints and is recoverable at all times. Records must arrive in tick
// order with no gaps; the stream protocol guarantees that, and the check
// here turns a protocol bug into an error instead of divergence.
func (e *Engine) IngestReplicated(tick uint64, body []byte) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if len(body) == 0 {
		return fmt.Errorf("engine: empty replicated record at tick %d", tick)
	}
	if tick != e.tick {
		return fmt.Errorf("engine: replication gap: got tick %d, want %d", tick, e.tick)
	}
	// The record is interpreted before it is logged, so a body this engine
	// cannot apply never reaches its WAL.
	switch body[0] {
	case recInstall:
		// A range install is logged at the primary's next tick but does not
		// advance it (InstallRange); mirror that — the tick's regular
		// record follows at the same tick number.
		return e.ingestInstall(tick, body)
	case recUpdateRuns:
	default:
		return fmt.Errorf("engine: unknown replicated record kind %d at tick %d", body[0], tick)
	}
	var err error
	if e.ingestBuf, err = wal.DecodeRuns(e.ingestBuf[:0], body[1:]); err != nil {
		return fmt.Errorf("engine: replicated tick %d: %w", tick, err)
	}
	return e.commit(true, func() []byte { return body }, func() (int64, error) { return e.applyBatch(e.ingestBuf), nil })
}

// Promote seals the standby and makes it a primary: ingested ticks are
// synced durable and normal ApplyTick ticking is enabled. The stream must
// already have stopped feeding IngestReplicated (the replication layer
// joins its applier first).
func (e *Engine) Promote() error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if e.closed {
		return errors.New("engine: closed")
	}
	if !e.standby {
		return errors.New("engine: Promote on a non-standby engine")
	}
	if e.log != nil {
		if err := e.log.Sync(); err != nil {
			return err
		}
	}
	e.standby = false
	return nil
}
