package replication

import (
	"errors"
	"net"
	"time"

	"repro/internal/engine"
)

// Resilient sessions: a reconnect-with-backoff supervisor under the
// Shipper and the Standby alike. A network cut degrades the pair instead of
// killing it — the standby keeps its warm engine and redials; the shipper
// keeps the primary's log retained down to the standby's last
// *acknowledged* tick and dials the next session; the resume handshake
// (ftResume) stitches the stream back together from the durable watermark.
// No tick is ever lost or double-applied: everything at or below the ack
// watermark is applied and retained nowhere, everything above it is still
// in the primary's log.

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
}

// fatalError marks a session error that redialing cannot fix (a poisoned
// local directory): the supervisor stops retrying.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// fatal reports whether redialing cannot fix err: a geometry mismatch —
// which either end of the handshake sees — or an error a session marked
// with *fatalError.
func fatal(err error) bool {
	var fe *fatalError
	return errors.As(err, &fe) || errors.Is(err, errGeometry)
}

// StartResilientStandby starts a standby that redials the primary with
// capped exponential backoff whenever the stream cuts, resuming from its
// engine's durable watermark (no re-bootstrap, no lost or repeated ticks).
// dial is called once per session attempt. The standby stops retrying on a
// fatal error or on Promote/Close.
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

// StartResilientShipper attaches a reconnecting shipper to a live engine.
// dial is called once per session attempt (the standby end decides, via
// the resume handshake, whether it needs a bootstrap or a mid-stream
// pickup). The shipper stops retrying on a fatal error or on Stop; the
// caller must Stop it before closing the engine.
func StartResilientShipper(e *engine.Engine, dial func() (net.Conn, error), opts StreamOptions, ropts ResilientOptions) (*Shipper, error) {
	if dial == nil {
		return nil, errors.New("replication: resilient shipper needs a dial function")
	}
	return startShipper(e, opts, &Shipper{dial: dial, ropts: ropts})
}

// supervise is the one reconnect loop, under both resilient ends. It calls
// attempt (dial and run one session; n counts attempts from 1) until stop
// closes or an attempt ends with a fatal error, pacing attempts with b —
// rewound whenever a session made progress, so a healthy-again link is
// retried eagerly. It returns stopped=true with the last attempt's error
// when stop ended the loop; otherwise the fatal error.
func supervise(b Backoff, stop <-chan struct{}, attempt func(n int) (progressed bool, err error)) (stopped bool, err error) {
	for n := 1; ; n++ {
		select {
		case <-stop:
			return true, err
		default:
		}
		var progressed bool
		progressed, err = attempt(n)
		select {
		case <-stop: // the stop cut this very session: not a retry
			return true, err
		default:
		}
		if fatal(err) {
			return false, err
		}
		if progressed {
			b.Reset()
		}
		t := time.NewTimer(b.Next())
		select {
		case <-stop:
			t.Stop()
			return true, err
		case <-t.C:
		}
	}
}

// runResilient is the reconnecting standby: each attempt dials and serves
// one stream session. Called from run with done-closing deferred.
func (sb *Standby) runResilient() {
	stopped, err := supervise(sb.ropts.Backoff, sb.stop, func(n int) (bool, error) {
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
		sb.mu.Lock()
		defer sb.mu.Unlock()
		if !sb.stopping && !fatal(err) {
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
