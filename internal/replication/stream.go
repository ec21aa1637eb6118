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
	// IdlePoll is the tail reader's fallback poll interval when no
	// tick-commit signal arrives (e.g. the primary is idle). <=0 means 5ms.
	IdlePoll time.Duration
}

// WithDefaults returns o with every unset field at its default.
func (o StreamOptions) WithDefaults() StreamOptions {
	if o.MaxLagTicks <= 0 {
		o.MaxLagTicks = 64
	}
	if o.IdlePoll <= 0 {
		o.IdlePoll = 5 * time.Millisecond
	}
	return o
}

// Stream is the sending end of one ack-bounded tick stream over the CRC
// framing: the one mechanism under the warm-standby Shipper, the migration
// RangeSender and the peer-RAM replica Sender. It owns the connection, the
// write scratch, the peer's acknowledgement watermark with the goroutine
// that reads it, the in-flight lag gate, the first-error latch and the
// stopped flag. What travels in the frames — snapshots, WAL records, cut
// markers, compressed bundles — stays with the caller.
//
// The watermark is kept in one form, "the first tick the peer has not
// acknowledged", which is also the form engine.TickSub.NeedFrom takes.
// Peers that acknowledge "applied through tick t" are normalised to t+1 by
// the caller's StartAcks hook, not by a mode in here.
//
// Send is for a single writer goroutine; every other method is safe for
// concurrent use.
type Stream struct {
	conn    net.Conn
	maxLag  uint64
	scratch []byte

	mu   sync.Mutex
	cond *sync.Cond
	next uint64 // first tick the peer has not acknowledged
	err  error  // first stream error; stays nil after a clean Stop

	stop chan struct{} // closed by Stop, under mu
	acks chan struct{} // closed when the ack reader exits; nil until StartAcks
}

// NewStream wraps conn; opts.MaxLagTicks is the WaitLag bound (IdlePoll is
// the caller's own tail-follow setting).
func NewStream(conn net.Conn, opts StreamOptions) *Stream {
	s := &Stream{
		conn:   conn,
		maxLag: uint64(opts.WithDefaults().MaxLagTicks),
		stop:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Send writes one frame with the given body.
func (s *Stream) Send(body []byte) error {
	var err error
	s.scratch, err = writeFrame(s.conn, s.scratch, body)
	return err
}

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
		var buf []byte
		for {
			body, nbuf, err := readFrame(s.conn, buf)
			if err != nil {
				s.Fail(fmt.Errorf("replication: ack stream: %w", err))
				return
			}
			buf = nbuf
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped() {
			return ErrStopped
		}
		if s.err != nil {
			return s.err
		}
		from := floor
		if s.next > from {
			from = s.next
		}
		// from > tick (an ack ahead of the send) first: tick-from would wrap.
		if from > tick || tick-from+1 <= s.maxLag {
			return nil
		}
		s.cond.Wait()
	}
}

// AwaitAck blocks until the peer has acknowledged tick, the stream fails or
// is stopped, or the timeout elapses (timeout <= 0 waits without a deadline).
func (s *Stream) AwaitAck(tick uint64, timeout time.Duration) error {
	timedOut := false
	if timeout > 0 {
		// The cond is woken by every ack; the timer breaks the wait on
		// timeout so a silent stream cannot park the caller forever.
		timer := time.AfterFunc(timeout, func() {
			s.mu.Lock()
			timedOut = true
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer timer.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.next > tick {
			return nil
		}
		if s.err != nil {
			return s.err
		}
		if s.stopped() {
			return ErrStopped
		}
		if timedOut {
			return fmt.Errorf("replication: tick %d not acknowledged within %v", tick, timeout)
		}
		s.cond.Wait()
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
	s.conn.Close() //nolint:errcheck // unblocks both directions; best effort
	if acks != nil {
		<-acks
	}
	return s.Err()
}

// handshake runs the initiating side of the geometry handshake (hello ⇄
// welcome) before StartAcks takes over the read half. It returns the frame
// read buffer for the caller's next read.
func (s *Stream) handshake(local hello) ([]byte, error) {
	if err := s.Send(encodeHello(ftHello, local)); err != nil {
		return nil, fmt.Errorf("replication: handshake: %w", err)
	}
	body, rbuf, err := readFrame(s.conn, nil)
	if err != nil {
		return rbuf, fmt.Errorf("replication: handshake: %w", err)
	}
	peer, err := decodeHello(ftWelcome, body)
	if err != nil {
		return rbuf, err
	}
	return rbuf, local.check(peer)
}

// acceptHandshake is the answering side: read the hello, check it against
// the local geometry, echo a welcome. scratch and the returned buffers are
// the caller's reusable frame write and read buffers.
func acceptHandshake(conn net.Conn, local hello) (rbuf, scratch []byte, err error) {
	body, rbuf, err := readFrame(conn, nil)
	if err != nil {
		return rbuf, nil, fmt.Errorf("replication: handshake: %w", err)
	}
	peer, err := decodeHello(ftHello, body)
	if err != nil {
		return rbuf, nil, err
	}
	if err := local.check(peer); err != nil {
		return rbuf, nil, err
	}
	if scratch, err = writeFrame(conn, nil, encodeHello(ftWelcome, local)); err != nil {
		return rbuf, scratch, fmt.Errorf("replication: handshake: %w", err)
	}
	return rbuf, scratch, nil
}
