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

// StreamOptions configures an ack-bounded tick stream and the WAL
// tail-follow that feeds it (Shipper, peerram.Sender).
type StreamOptions struct {
	// MaxLagTicks bounds the number of sent-but-unacknowledged ticks: the
	// sender stalls (never drops, never reorders) once the peer falls this
	// many ticks behind, which in turn bounds the peer's replay lag — the
	// warm-failover budget. <=0 means 64.
	MaxLagTicks int
}

// Stream is the sending end of one ack-bounded tick stream over a framed
// connection: the one mechanism under the warm-standby Shipper, the migration
// RangeSender and the peer-RAM replica Sender. It owns the connection, the
// peer's acknowledgement watermark with the goroutine that reads it, the
// in-flight lag gate, the first-error latch and the stopped flag. What
// travels in the frames — snapshots, WAL records, cut markers, compressed
// bundles — stays with the caller.
//
// The watermark is kept in one form, "the first tick the peer has not
// acknowledged", which is also the form engine.TickSub.NeedFrom takes.
// Peers that acknowledge "applied through tick t" are normalised to t+1 by
// the caller's StartAcks hook, not by a mode in here.
//
// Frame and Send are for a single writer goroutine; every other method is
// safe for concurrent use.
type Stream struct {
	c      *Conn
	maxLag uint64

	mu   sync.Mutex
	cond *sync.Cond
	next uint64 // first tick the peer has not acknowledged
	err  error  // first stream error; stays nil after a clean Stop

	stop chan struct{} // closed by Stop, under mu
	acks chan struct{} // closed when the ack reader exits; nil until StartAcks
}

// NewStream wraps conn; opts.MaxLagTicks is the WaitLag bound.
func NewStream(conn net.Conn, opts StreamOptions) *Stream {
	if opts.MaxLagTicks <= 0 {
		opts.MaxLagTicks = 64
	}
	s := &Stream{
		c:      NewConn(conn, MaxFrameSize),
		maxLag: uint64(opts.MaxLagTicks),
		stop:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Frame starts a frame of the given type in the connection's write buffer;
// the caller appends the body and hands the result to Send (see Conn.Frame).
func (s *Stream) Frame(typ byte) []byte { return s.c.Frame(typ) }

// Send ships a frame built on Frame's slice in one Write.
func (s *Stream) Send(b []byte) error { return s.c.Send(b) }

// StartAcks starts the goroutine that owns the connection's read half from
// here on: every frame the peer sends must be an ackType frame carrying one
// u64. onAck maps that wire value to the first tick the peer has not
// acknowledged; it runs on the reader goroutine before waiters are woken, so
// it is also where a caller releases log retention (TickSub.NeedFrom). The
// watermark only ever moves forward. A read or decode failure latches the
// stream's error and ends the reader.
func (s *Stream) StartAcks(ackType byte, onAck func(v uint64) (next uint64)) {
	done := make(chan struct{})
	s.mu.Lock()
	if s.stopped() {
		s.mu.Unlock()
		return
	}
	s.acks = done
	s.mu.Unlock()
	go func() {
		defer close(done)
		for {
			body, err := s.c.ReadFrame()
			if err != nil {
				s.Fail(fmt.Errorf("replication: ack stream: %w", err))
				return
			}
			v, err := decodeU64(ackType, body)
			if err != nil {
				s.Fail(err)
				return
			}
			next := onAck(v)
			s.mu.Lock()
			if next > s.next {
				s.next = next
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}()
}

// Fail latches err as the stream's error if it is the first and the stream
// was not stopped, and wakes every waiter. A nil err is ignored.
func (s *Stream) Fail(err error) {
	s.mu.Lock()
	if err != nil && s.err == nil && !s.stopped() {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// WaitLag blocks until sending tick would keep the in-flight window — the
// ticks from the acknowledgement watermark (or floor, the first tick this
// stream carries, while that is higher) through tick — within the lag
// bound, the stream fails, or it is stopped.
func (s *Stream) WaitLag(tick, floor uint64) error {
	return waitTick(s.cond, tick, 0, func() (bool, error) {
		switch {
		case s.stopped():
			return false, ErrStopped
		case s.err != nil:
			return false, s.err
		}
		from := max(floor, s.next)
		// from > tick (an ack ahead of the send) first: tick-from would wrap.
		return from > tick || tick-from+1 <= s.maxLag, nil
	})
}

// AwaitAck blocks until the peer has acknowledged tick, the stream fails or
// is stopped, or the timeout elapses (timeout <= 0 waits without a deadline).
func (s *Stream) AwaitAck(tick uint64, timeout time.Duration) error {
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
func (s *Stream) Acked() (tick uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == 0 {
		return 0, false
	}
	return s.next - 1, true
}

// Err returns the first stream error, nil while healthy or after a clean
// Stop.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stopped is closed by Stop: the signal a sender's own loop selects on.
func (s *Stream) Stopped() <-chan struct{} { return s.stop }

func (s *Stream) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Stop marks the stream stopped, closes the connection (the peer sees the
// stream end; blocked reads, writes and waiters return) and joins the ack
// reader. Failures after Stop are not latched. It returns the first stream
// error, nil if the stream was healthy; safe to call more than once.
func (s *Stream) Stop() error {
	s.mu.Lock()
	if !s.stopped() {
		close(s.stop)
	}
	acks := s.acks
	s.cond.Broadcast()
	s.mu.Unlock()
	s.c.Close() //nolint:errcheck // unblocks both directions; best effort
	if acks != nil {
		<-acks
	}
	return s.Err()
}

// handshake runs the initiating side of the geometry handshake (hello ⇄
// welcome) before StartAcks takes over the read half.
func (s *Stream) handshake(local hello) error {
	if err := local.send(s.c, ftHello); err != nil {
		return fmt.Errorf("replication: handshake: %w", err)
	}
	return local.expect(s.c, ftWelcome)
}

// acceptHandshake is the answering side: read the hello, check it against
// the local geometry, echo a welcome.
func acceptHandshake(c *Conn, local hello) error {
	if err := local.expect(c, ftHello); err != nil {
		return err
	}
	if err := local.send(c, ftWelcome); err != nil {
		return fmt.Errorf("replication: handshake: %w", err)
	}
	return nil
}
