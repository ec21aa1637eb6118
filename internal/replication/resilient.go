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

// supervise is the one reconnect loop, under both resilient ends. It calls
// attempt (dial and run one session; n counts attempts from 1) until stop
// closes, an attempt ends with a *fatalError, or ropts.MaxSessions attempts
// have been made, pacing attempts with ropts.Backoff — rewound whenever a
// session made progress, so a healthy-again link is retried eagerly. It
// returns stopped=true with the last attempt's error when stop ended the
// loop; otherwise the terminal error: the fatal one, or who "gave up".
func supervise(who string, ropts ResilientOptions, stop <-chan struct{}, attempt func(n int) (progressed bool, err error)) (stopped bool, err error) {
	b := ropts.Backoff
	var last error
	for n := 1; ; n++ {
		select {
		case <-stop:
			return true, last
		default:
		}
		if ropts.MaxSessions > 0 && n > ropts.MaxSessions {
			return false, fmt.Errorf("replication: %s gave up after %d sessions: %w", who, n-1, last)
		}
		var progressed bool
		progressed, last = attempt(n)
		select {
		case <-stop: // the stop cut this very session: not a retry
			return true, last
		default:
		}
		var fe *fatalError
		if errors.As(last, &fe) {
			return false, last
		}
		if progressed {
			b.Reset()
		}
		t := time.NewTimer(b.Next())
		select {
		case <-stop:
			t.Stop()
			return true, last
		case <-t.C:
		}
	}
}

// runResilient is the reconnecting standby: each attempt dials and serves
// one stream session. Called from run with done-closing deferred.
func (sb *Standby) runResilient() {
	stopped, err := supervise("standby", sb.ropts, sb.stop, func(n int) (bool, error) {
		sb.mu.Lock()
		sb.stats.Sessions = n
		sb.mu.Unlock()
		conn, err := sb.dial()
		if err != nil {
			return false, err
		}
		sb.mu.Lock()
		sb.conn = conn
		before := sb.stats.TicksApplied
		sb.mu.Unlock()
		err = sb.serveConn(conn)
		conn.Close() //nolint:errcheck
		var fe *fatalError
		sb.mu.Lock()
		defer sb.mu.Unlock()
		if !sb.stopping && !errors.As(err, &fe) {
			sb.stats.Reconnects++ // the session ended retryably
		}
		return sb.stats.TicksApplied > before, err
	})
	if stopped && err == nil {
		// A deliberate shutdown seals with the last stream error if one
		// exists (the plain standby's "ended by some error" contract).
		err = errors.New("replication: standby stopped")
	}
	sb.seal(err)
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
	cond     *sync.Cond // broadcast on every ack, on the terminal error and on Stop
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
	r.cond = sync.NewCond(&r.mu)
	go r.run()
	return r, nil
}

func (r *ResilientShipper) run() {
	defer close(r.done)
	defer r.sub.Close()
	stopped, err := supervise("shipper", r.ropts, r.stop, r.session)
	if !stopped {
		r.mu.Lock()
		r.err = err
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// session is one supervised attempt: dial, run a plain Shipper until it
// ends or Stop, report whether it advanced the ack watermark.
func (r *ResilientShipper) session(n int) (progressed bool, err error) {
	r.mu.Lock()
	r.sessions = n
	base, hasBase := r.acked, r.hasAcked
	r.mu.Unlock()
	if n > 1 {
		telResumes.Inc()
	}
	conn, err := r.dial()
	if err != nil {
		return false, err
	}
	sh, err := startShipper(r.e, conn, r.opts, r.noteAck)
	if err != nil {
		conn.Close() //nolint:errcheck
		return false, err
	}
	select {
	case <-r.stop:
		sh.Stop() //nolint:errcheck // its error is read below
	case <-sh.Done():
	}
	a, ok := r.Acked()
	return ok && (!hasBase || a > base), sh.Err()
}

// noteAck is every session's ack hook: it folds the standby's applied tick
// into the supervisor watermark, advances the cross-session retention pin
// and wakes AwaitAck — as the ack arrives, on the session's reader goroutine.
func (r *ResilientShipper) noteAck(tick uint64) {
	r.mu.Lock()
	if !r.hasAcked || tick > r.acked {
		r.acked, r.hasAcked = tick, true
	}
	tick = r.acked
	r.cond.Broadcast()
	r.mu.Unlock()
	r.sub.NeedFrom(tick + 1)
}

// Acked returns the high-water acknowledged tick across every session so
// far, including the live one.
func (r *ResilientShipper) Acked() (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked, r.hasAcked
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
// many sessions that takes — the supervisor gives up or is stopped, or the
// timeout elapses (timeout <= 0 waits without a deadline).
func (r *ResilientShipper) AwaitAck(tick uint64, timeout time.Duration) error {
	return waitTick(r.cond, tick, timeout, func() (bool, error) {
		switch {
		case r.hasAcked && r.acked >= tick:
			return true, nil
		case r.err != nil:
			return false, r.err
		case r.stopped:
			return false, ErrStopped
		}
		return false, nil
	})
}

// Stop ends the supervisor and the live session, if any, and joins the
// loop. Safe to call more than once.
func (r *ResilientShipper) Stop() error {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	<-r.done
	return r.Err()
}
