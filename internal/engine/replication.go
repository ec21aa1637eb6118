package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/wal"
)

// Replication hooks: the engine-side integration points of the live WAL
// shipping subsystem (internal/replication). A primary exposes three things
// to a shipper — a tick-commit notification (so the shipper's tail reader
// never polls blind), a consistent image snapshot handoff (the standby's
// bootstrap), and a log-retention watermark (so segment pruning never
// deletes records the shipper has not streamed yet). A standby engine is
// opened with OpenStandby, fed with IngestReplicated, and flipped into a
// primary with Promote.

// TickSub is a live subscription to the engine's tick commits. While any
// subscription is open the engine flushes the logical log at every tick
// (making the freshly appended frame visible to wal.TailReader) and sends a
// coalesced signal on C carrying the latest committed tick. The engine's
// log pruning additionally retains every segment that may hold a record at
// or above the subscriber's NeedFrom watermark.
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

// NeedFrom publishes that log records below tick are no longer needed by
// this subscriber (they were streamed, or are covered by the bootstrap
// snapshot). Pruning may then reclaim segments wholly below the watermark.
func (s *TickSub) NeedFrom(tick uint64) { s.need.Store(tick) }

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

// SubscribeTicks registers a tick-commit subscription. It requires a
// durable log (replication streams the WAL; an InMemory engine has none).
// Until the subscriber publishes a NeedFrom watermark, pruning retains the
// whole log on its behalf.
func (e *Engine) SubscribeTicks() (*TickSub, error) {
	if e.log == nil {
		return nil, errors.New("engine: replication requires a durable log (not InMemory)")
	}
	return e.subscribe(false), nil
}

// SubscribeCommits registers a commit-only tick subscription: C delivers the
// latest committed tick exactly like SubscribeTicks, but the subscriber
// declares it will never read the log — so the engine does not flush the log
// on its behalf, the subscription works on any engine (InMemory included),
// and log pruning ignores it (its retention watermark starts at "needs
// nothing" and NeedFrom should not be called). It is the session gateway's
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

// notifySubs flushes the log (tail-reader visibility barrier) and signals
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

// Snapshot returns a copy of the state slab consistent as of the last
// applied tick, plus the tick the next record will carry (the first tick
// the snapshot does NOT cover). It is the standby bootstrap handoff: ship
// the image, then stream WAL records from nextTick on. Safe to call
// concurrently with the tick loop — it serializes with ApplyTick on the
// engine's tick mutex, so the copy never observes a half-applied tick.
func (e *Engine) Snapshot() (nextTick uint64, data []byte, err error) {
	return e.SnapshotRange(0, e.store.NumObjects())
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

// OpenStandby opens a warm-standby engine in opts.Dir from a primary's
// snapshot handoff: the slab is initialized from data (consistent as of
// nextTick-1), and — so the standby is durable from the first ingested
// tick, not from its first own checkpoint — the snapshot is written to the
// standby's backup as a complete bootstrap image before OpenStandby
// returns. Recovery of a standby that crashed mid-stream is then exactly
// the paper's procedure: restore the bootstrap (or a newer own) image,
// replay the standby's own log.
//
// The directory must be fresh (no prior images, no log): a standby inherits
// its identity from the stream, not from local state. The returned engine
// accepts only IngestReplicated until Promote.
func OpenStandby(opts Options, nextTick uint64, data []byte) (*Engine, error) {
	if opts.Mode == ModeNone && nextTick > 0 {
		// A ModeNone standby would hold a log that starts mid-history with
		// no image beneath it: unrecoverable by construction.
		return nil, errors.New("engine: a standby needs a checkpointing mode (ModeNone cannot persist the bootstrap snapshot)")
	}
	e, _, err := open(opts, false, nil, nil)
	if err != nil {
		return nil, err
	}
	if e.recovered.Restored || e.recovered.NextTick != 0 {
		e.Close()
		return nil, fmt.Errorf("engine: standby dir %s holds previous state (recovered to tick %d)",
			opts.Dir, e.recovered.NextTick)
	}
	if len(data) != len(e.store.Slab()) {
		e.Close()
		return nil, fmt.Errorf("engine: snapshot is %d bytes, state holds %d", len(data), len(e.store.Slab()))
	}
	copy(e.store.Slab(), data)
	e.tick = nextTick
	e.standby = true
	if nextTick > 0 {
		if err := e.writeBootstrapImage(nextTick - 1); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// writeBootstrapImage persists the freshly installed snapshot as a complete
// checkpoint image through the checkpointer's own commit protocol. It runs
// before any ingest, while the checkpointer is idle, and leaves it targeting
// the other backup with a later epoch — exactly the state recovery would
// have set up had this image been restored from disk.
func (e *Engine) writeBootstrapImage(asOfTick uint64) error {
	ev, ok, err := e.cp.bootstrap(asOfTick)
	if err != nil {
		return fmt.Errorf("engine: bootstrap image: %w", err)
	}
	if ok { // not ModeNone (nextTick 0 only): there was something to seed
		e.recordCheckpoint(ev, e.tick, false)
	}
	return nil
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
	var apply func() (int64, error)
	switch kind, payload := body[0], body[1:]; kind {
	case recInstall:
		// A range install is logged at the primary's next tick but does not
		// advance it (InstallRange); mirror that — the tick's regular
		// record follows at the same tick number.
		return e.ingestInstall(tick, body)
	case recUpdates:
		var err error
		if e.ingestBuf, err = wal.DecodeUpdates(e.ingestBuf[:0], payload); err != nil {
			return fmt.Errorf("engine: replicated tick %d: %w", tick, err)
		}
		apply = func() (int64, error) { return e.applyBatch(e.ingestBuf), nil }
	case recAction:
		if e.opts.ReplayAction == nil {
			return fmt.Errorf("engine: replicated action tick %d but no ReplayAction was provided", tick)
		}
		apply = func() (int64, error) {
			w := TickWriter{e: e}
			if err := e.opts.ReplayAction(tick, payload, &w); err != nil {
				return 0, fmt.Errorf("engine: replicated action tick %d: %w", tick, err)
			}
			return w.applied, nil
		}
	default:
		return fmt.Errorf("engine: unknown replicated record kind %d at tick %d", kind, tick)
	}
	return e.commit(true, 1, func(int) []byte { return body }, apply)
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
