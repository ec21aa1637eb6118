package replication

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// Resilient sessions: reconnect-with-backoff supervisors over the plain
// Shipper/Standby. A network cut degrades the pair instead of killing it —
// the standby keeps its warm engine and redials; the shipper keeps the
// primary's log retained down to the standby's last *acknowledged* tick and
// accepts the next session; the resume handshake (ftResume) stitches the
// stream back together from the durable watermark. No tick is ever lost or
// double-applied: everything at or below the ack watermark is applied and
// retained nowhere, everything above it is still in the primary's log.

// Backoff is a capped exponential delay sequence for reconnect loops:
// Base, 2·Base, 4·Base, … capped at Cap. The zero value means 10ms → 1s.
type Backoff struct {
	Base, Cap time.Duration
	cur       time.Duration
}

// Next returns the next delay in the sequence.
func (b *Backoff) Next() time.Duration {
	base, cap := b.Base, b.Cap
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	if b.cur <= 0 {
		b.cur = base
	} else if b.cur < cap {
		b.cur *= 2
	}
	if b.cur > cap {
		b.cur = cap
	}
	return b.cur
}

// Reset rewinds the sequence to Base; call it after a session made
// progress so a healthy-again link is retried eagerly.
func (b *Backoff) Reset() { b.cur = 0 }

// ResilientOptions tunes a reconnecting session supervisor.
type ResilientOptions struct {
	// Backoff paces reconnect attempts; the zero value means 10ms → 1s.
	Backoff Backoff
	// MaxSessions bounds the total number of connection attempts; once a
	// dial or session would exceed it the supervisor gives up and surfaces
	// the last error. <=0 means retry forever (until Stop/Promote/Close
	// or a fatal — non-retryable — error).
	MaxSessions int
}

// fatalError marks a session error that redialing cannot fix (geometry
// mismatch, a poisoned local directory): the supervisor stops retrying.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// StartResilientStandby starts a standby that redials the primary with
// capped exponential backoff whenever the stream cuts, resuming from its
// engine's durable watermark (no re-bootstrap, no lost or repeated ticks).
// dial is called once per session attempt. The standby stops retrying on a
// fatal error, after ropts.MaxSessions attempts, or on Promote/Close.
func StartResilientStandby(opts engine.Options, dial func() (net.Conn, error), ropts ResilientOptions) (*Standby, error) {
	if err := opts.Table.Validate(); err != nil {
		return nil, err
	}
	if dial == nil {
		return nil, errors.New("replication: resilient standby needs a dial function")
	}
	sb := newStandby(opts, nil)
	sb.dial, sb.ropts = dial, ropts
	go sb.run()
	return sb, nil
}

// runResilient is the reconnecting session loop: dial, serve, classify the
// end cause, back off, repeat. Called from run with done-closing deferred.
func (sb *Standby) runResilient() {
	b := sb.ropts.Backoff
	var lastErr error
	for {
		select {
		case <-sb.stop:
			sb.seal(stopCause(lastErr))
			return
		default:
		}
		sb.mu.Lock()
		if sb.ropts.MaxSessions > 0 && sb.stats.Sessions >= sb.ropts.MaxSessions {
			n := sb.stats.Sessions
			sb.mu.Unlock()
			sb.seal(fmt.Errorf("replication: standby gave up after %d sessions: %w", n, lastErr))
			return
		}
		sb.stats.Sessions++
		sb.mu.Unlock()

		conn, err := sb.dial()
		if err != nil {
			lastErr = err
			if !sleepOrStop(sb.stop, b.Next()) {
				sb.seal(stopCause(lastErr))
				return
			}
			continue
		}
		sb.mu.Lock()
		sb.conn = conn
		before := sb.stats.TicksApplied
		sb.mu.Unlock()
		err = sb.serveConn(conn)
		conn.Close() //nolint:errcheck
		lastErr = err

		select {
		case <-sb.stop: // Promote/Close cut this very session: not a retry
			sb.seal(stopCause(lastErr))
			return
		default:
		}
		var fe *fatalError
		if errors.As(err, &fe) {
			sb.seal(err)
			return
		}
		sb.mu.Lock()
		sb.stats.Reconnects++
		progressed := sb.stats.TicksApplied > before
		sb.mu.Unlock()
		if progressed {
			b.Reset()
		}
		if !sleepOrStop(sb.stop, b.Next()) {
			sb.seal(stopCause(lastErr))
			return
		}
	}
}

// sleepOrStop waits d or until stop closes; it reports whether the
// reconnect loop should continue.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// stopCause is the seal error for a deliberate shutdown: the last stream
// error if one exists (mirrors the plain standby's "ended by some error"
// contract), else a plain stopped marker.
func stopCause(lastErr error) error {
	if lastErr != nil {
		return lastErr
	}
	return errors.New("replication: standby stopped")
}

// ResilientShipper keeps one primary engine streaming to a (re)connecting
// standby across connection failures. Each session is a plain Shipper; the
// supervisor's own tick subscription pins the primary's log retention at
// the standby's acknowledged watermark BETWEEN sessions, so the records a
// cut left unacknowledged are still there when the standby redials and
// resumes.
type ResilientShipper struct {
	e     *engine.Engine
	dial  func() (net.Conn, error)
	opts  StreamOptions
	ropts ResilientOptions
	sub   *engine.TickSub // retention pin: always acked+1

	mu       sync.Mutex
	cur      *Shipper
	acked    uint64
	hasAcked bool
	sessions int
	err      error
	stopped  bool

	stop chan struct{}
	done chan struct{}
}

// StartResilientShipper attaches a reconnecting shipper to a live engine.
// dial is called once per session attempt (the standby end decides, via
// the resume handshake, whether it needs a bootstrap or a mid-stream
// pickup). The caller must Stop it before closing the engine.
func StartResilientShipper(e *engine.Engine, dial func() (net.Conn, error), opts StreamOptions, ropts ResilientOptions) (*ResilientShipper, error) {
	if dial == nil {
		return nil, errors.New("replication: resilient shipper needs a dial function")
	}
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	r := &ResilientShipper{
		e:     e,
		dial:  dial,
		opts:  opts,
		ropts: ropts,
		sub:   sub,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.run()
	return r, nil
}

func (r *ResilientShipper) run() {
	defer close(r.done)
	defer r.sub.Close()
	b := r.ropts.Backoff
	var lastErr error
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		if r.ropts.MaxSessions > 0 && r.sessions >= r.ropts.MaxSessions {
			n := r.sessions
			if r.err == nil {
				r.err = fmt.Errorf("replication: shipper gave up after %d sessions: %w", n, lastErr)
			}
			r.mu.Unlock()
			return
		}
		r.sessions++
		resumed := r.sessions > 1
		r.mu.Unlock()
		if resumed {
			telResumes.Inc()
		}

		conn, err := r.dial()
		if err != nil {
			lastErr = err
			if !sleepOrStop(r.stop, b.Next()) {
				return
			}
			continue
		}
		sh, err := StartShipper(r.e, conn, r.opts)
		if err != nil {
			conn.Close() //nolint:errcheck
			lastErr = err
			if !sleepOrStop(r.stop, b.Next()) {
				return
			}
			continue
		}
		r.mu.Lock()
		r.cur = sh
		base := r.acked
		hasBase := r.hasAcked
		r.mu.Unlock()

		progressed := r.watch(sh, base, hasBase)
		r.mu.Lock()
		r.cur = nil
		r.mu.Unlock()
		lastErr = sh.Err()
		select {
		case <-r.stop:
			return
		default:
		}
		if progressed {
			b.Reset()
		}
		if !sleepOrStop(r.stop, b.Next()) {
			return
		}
	}
}

// watch follows one session until it ends or Stop: it folds the session's
// acks into the supervisor watermark every poll so the retention pin and
// AwaitAck observers track a live session, not just finished ones. It
// reports whether the session advanced the watermark.
func (r *ResilientShipper) watch(sh *Shipper, base uint64, hasBase bool) bool {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			sh.Stop() //nolint:errcheck
			r.fold(sh)
			return false
		case <-sh.Done():
			r.fold(sh)
			a, ok := r.Acked()
			return ok && (!hasBase || a > base)
		case <-tick.C:
			r.fold(sh)
		}
	}
}

// fold merges a session's ack high-water into the supervisor and advances
// the cross-session retention pin.
func (r *ResilientShipper) fold(sh *Shipper) {
	a, ok := sh.Acked()
	if !ok {
		return
	}
	r.mu.Lock()
	if !r.hasAcked || a > r.acked {
		r.acked, r.hasAcked = a, true
	}
	a = r.acked
	r.mu.Unlock()
	r.sub.NeedFrom(a + 1)
}

// Acked returns the high-water acknowledged tick across every session so
// far, including the live one.
func (r *ResilientShipper) Acked() (uint64, bool) {
	r.mu.Lock()
	a, ok, cur := r.acked, r.hasAcked, r.cur
	r.mu.Unlock()
	if cur != nil {
		if ca, cok := cur.Acked(); cok && (!ok || ca > a) {
			a, ok = ca, true
		}
	}
	return a, ok
}

// Sessions returns how many connection attempts were made.
func (r *ResilientShipper) Sessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions
}

// Err returns the terminal supervisor error (gave up), nil while running
// or after Stop.
func (r *ResilientShipper) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// AwaitAck blocks until the standby has acknowledged tick — across however
// many sessions that takes — the supervisor gives up, or the timeout
// elapses. The waiting itself is the live session's (Stream.AwaitAck), in
// short slices so a session that dies mid-wait hands over to its successor.
func (r *ResilientShipper) AwaitAck(tick uint64, timeout time.Duration) error {
	const slice = 5 * time.Millisecond
	deadline := time.Now().Add(timeout)
	for {
		if a, ok := r.Acked(); ok && a >= tick {
			return nil
		}
		r.mu.Lock()
		err, stopped, cur := r.err, r.stopped, r.cur
		r.mu.Unlock()
		if err != nil {
			return err
		}
		if stopped {
			return ErrStopped
		}
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("replication: tick %d not acknowledged within %v", tick, timeout)
		}
		if cur == nil || cur.AwaitAck(tick, min(left, slice)) != nil {
			time.Sleep(time.Millisecond) // between sessions, or this one is dead or slow: look again
		}
	}
}

// Stop ends the supervisor and the live session, if any, and joins the
// loop. Safe to call more than once.
func (r *ResilientShipper) Stop() error {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	cur := r.cur
	r.mu.Unlock()
	if cur != nil {
		cur.Stop() //nolint:errcheck // joined by the run loop via watch
	}
	<-r.done
	return r.Err()
}
