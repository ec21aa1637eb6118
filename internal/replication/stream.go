package replication

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrStopped reports a stream shut down by Stop rather than by a failure.
var ErrStopped = errors.New("replication: stream stopped")

// StreamOptions configures a Shipper's ack-bounded tick stream.
type StreamOptions struct {
	// MaxLagTicks bounds the number of sent-but-unacknowledged ticks: the
	// sender stalls (never drops, never reorders) once the peer falls this
	// many ticks behind, which in turn bounds the peer's replay lag — the
	// warm-failover budget. <=0 means 64.
	MaxLagTicks int
}

// stream is the Shipper's ack-bounded tick stream. It lives as long as the
// Shipper, across however many sessions that runs: it owns the standby's
// acknowledgement watermark, the in-flight lag gate, the first-error latch
// and the stopped flag. A session adds only its framed connection and the
// goroutine that reads acknowledgements from it (attach, StartAcks,
// detach). What travels in the frames — the image and the WAL records —
// stays with the Shipper.
//
// The watermark is kept in one form, "the first tick the peer has not
// acknowledged", which is also the form engine.LogFollower.NeedFrom takes.
// The standby acknowledges "applied through tick t"; the reader folds that
// to t+1.
//
// Every method is safe for concurrent use.
type stream struct {
	maxLag uint64
	redial bool              // a session's end is not the stream's: the shipper dials another
	onAck  func(next uint64) // runs on the reader after the watermark moves, before waiters wake

	mu   sync.Mutex
	cond *sync.Cond
	next uint64 // first tick the peer has not acknowledged, across sessions
	err  error  // first error that ended the stream; stays nil after a clean Stop

	c    *Conn         // the live session's connection; nil between sessions
	cut  error         // why the live session ended; nil while it runs
	acks chan struct{} // closed when the live session's ack reader exits

	stop chan struct{} // closed by Stop, under mu
}

// newStream returns an idle stream; opts.MaxLagTicks is the WaitLag bound.
// With redial unset, the first session's end cause is the stream's error.
func newStream(opts StreamOptions, redial bool, onAck func(next uint64)) *stream {
	if opts.MaxLagTicks <= 0 {
		opts.MaxLagTicks = 64
	}
	s := &stream{
		maxLag: uint64(opts.MaxLagTicks),
		redial: redial,
		onAck:  onAck,
		stop:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// attach starts a session on conn and returns it framed. A stopped stream
// closes conn and returns ErrStopped.
func (s *stream) attach(conn net.Conn) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped() {
		conn.Close() //nolint:errcheck // never used
		return nil, ErrStopped
	}
	s.c, s.cut, s.acks = NewConn(conn, MaxFrameSize), nil, nil
	return s.c, nil
}

// detach ends the live session with err as its cause (see end) before the
// reader can report the close: the connection is closed (the peer sees the
// stream end) and the ack reader joined before it returns.
func (s *stream) detach(err error) {
	s.end(err)
	s.mu.Lock()
	c, acks := s.c, s.acks
	s.c, s.acks = nil, nil
	s.mu.Unlock()
	c.Close() //nolint:errcheck // unblocks both directions; best effort
	if acks != nil {
		<-acks
	}
}

// StartAcks starts the goroutine that owns the live session's read half
// from here on: every frame the peer sends must be an ftAck frame carrying
// one u64. The watermark only ever moves forward. A read or decode failure
// ends the session (and, without redial, the stream) and the reader. The
// returned channel is closed when the reader exits, so it is the session's
// own stop signal: Stop closes the connection under it.
func (s *stream) StartAcks() <-chan struct{} {
	done := make(chan struct{})
	s.mu.Lock()
	c := s.c
	s.acks = done
	s.mu.Unlock()
	go func() {
		defer close(done)
		for {
			body, err := c.ReadFrame()
			if err != nil {
				s.end(fmt.Errorf("replication: ack stream: %w", err))
				return
			}
			v, err := decodeU64(ftAck, body)
			if err != nil {
				s.end(err)
				return
			}
			s.mu.Lock()
			s.next = max(s.next, v+1)
			next := s.next
			s.mu.Unlock()
			s.onAck(next)
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}()
	return done
}

// end records err as the live session's end cause if it is the first and
// the stream was not stopped — without redial also as the stream's error —
// and wakes every waiter. A nil err is ignored.
func (s *stream) end(err error) {
	s.mu.Lock()
	if err != nil && s.cut == nil && !s.stopped() {
		s.cut = err
		if !s.redial && s.err == nil {
			s.err = err
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Fail latches err as the stream's error if it is the first and the stream
// was not stopped, and wakes every waiter. A nil err is ignored.
func (s *stream) Fail(err error) {
	s.mu.Lock()
	if err != nil && s.err == nil && !s.stopped() {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// WaitLag blocks until sending tick would keep the in-flight window — the
// ticks from the acknowledgement watermark (or floor, the first tick this
// session carries, while that is higher) through tick — within the lag
// bound, the session or the stream fails, or it is stopped.
func (s *stream) WaitLag(tick, floor uint64) error {
	return waitTick(s.cond, tick, 0, func() (bool, error) {
		switch {
		case s.stopped():
			return false, ErrStopped
		case s.err != nil:
			return false, s.err
		case s.cut != nil:
			return false, s.cut
		}
		from := max(floor, s.next)
		// from > tick (an ack ahead of the send) first: tick-from would wrap.
		return from > tick || tick-from+1 <= s.maxLag, nil
	})
}

// AwaitAck blocks until the peer has acknowledged tick — across however
// many sessions that takes — the stream fails or is stopped, or the timeout
// elapses (timeout <= 0 waits without a deadline).
func (s *stream) AwaitAck(tick uint64, timeout time.Duration) error {
	return waitTick(s.cond, tick, timeout, func() (bool, error) {
		switch {
		case s.next > tick:
			return true, nil
		case s.err != nil:
			return false, s.err
		case s.stopped():
			return false, ErrStopped
		}
		return false, nil
	})
}

// waitTick parks on cond until check — run under cond's lock, which the
// caller must not hold — reports done or an error, or the timeout elapses
// (timeout <= 0 waits without a deadline). Whoever changes what check reads
// broadcasts on cond.
func waitTick(cond *sync.Cond, tick uint64, timeout time.Duration, check func() (bool, error)) error {
	timedOut := false
	if timeout > 0 {
		// The timer breaks the wait on timeout so a silent stream cannot
		// park the caller forever.
		timer := time.AfterFunc(timeout, func() {
			cond.L.Lock()
			timedOut = true
			cond.Broadcast()
			cond.L.Unlock()
		})
		defer timer.Stop()
	}
	cond.L.Lock()
	defer cond.L.Unlock()
	for {
		if done, err := check(); done || err != nil {
			return err
		}
		if timedOut {
			return fmt.Errorf("replication: tick %d not acknowledged within %v", tick, timeout)
		}
		cond.Wait()
	}
}

// Acked returns the highest tick the peer has acknowledged; ok is false
// until the first acknowledgement.
func (s *stream) Acked() (tick uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == 0 {
		return 0, false
	}
	return s.next - 1, true
}

// Err returns the first stream error, nil while healthy or after a clean
// Stop.
func (s *stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stopped is closed by Stop: the signal a reconnect loop selects on.
func (s *stream) Stopped() <-chan struct{} { return s.stop }

func (s *stream) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Stop marks the stream stopped and closes the live connection, if any:
// the peer sees the stream end, and blocked reads, writes and waiters
// return. Failures after Stop are not latched. It returns the first stream
// error, nil if the stream was healthy; safe to call more than once.
func (s *stream) Stop() error {
	s.mu.Lock()
	if !s.stopped() {
		close(s.stop)
	}
	c := s.c
	s.cond.Broadcast()
	s.mu.Unlock()
	if c != nil {
		c.Close() //nolint:errcheck // unblocks both directions; best effort
	}
	return s.Err()
}

// handshake runs the initiating side of the geometry handshake (hello ⇄
// welcome) before StartAcks takes over the read half.
func handshake(c *Conn, local hello) error {
	if err := local.send(c, ftHello); err != nil {
		return fmt.Errorf("replication: handshake: %w", err)
	}
	return local.expect(c, ftWelcome)
}

// acceptHandshake is the answering side: read the hello, answer a
// well-formed one with a welcome, then check its geometry — so a mismatch
// fails on both ends with errGeometry, not only here.
func acceptHandshake(c *Conn, local hello) error {
	peer, err := readHello(c, ftHello)
	if err != nil {
		return err
	}
	if err := local.send(c, ftWelcome); err != nil {
		return fmt.Errorf("replication: handshake: %w", err)
	}
	return local.check(peer)
}
