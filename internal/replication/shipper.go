package replication

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
)

// ShipperStats is a snapshot of a shipper's progress counters.
type ShipperStats struct {
	// StartTick is the first tick the bootstrap session carries: the
	// shipped image's AsOfTick+1, or 0 when the primary had no image.
	StartTick uint64
	// ImageBytes counts the object bytes of the bootstrap image shipped:
	// its populated runs.
	ImageBytes int64
	// TicksShipped and BytesShipped count ftTick traffic, over every
	// session.
	TicksShipped int64
	BytesShipped int64
	// Shipped and Acked are the high-water ticks sent and acknowledged.
	Shipped, Acked       uint64
	HasShipped, HasAcked bool
}

// Shipper streams a primary engine to one standby: its newest complete
// backup image first, then the whole ticks an engine.LogFollower reads from
// the engine's log, over an ack-bounded stream. A plain shipper
// (StartShipper) runs one session on the connection it was given and ends
// when that breaks, the engine closes, or Stop. A reconnecting one (StartResilientShipper) dials
// a new session whenever one ends, until Stop or a fatal error; the ack
// watermark, the lag gate and the log follower — whose NeedFrom pins the
// primary's log at the standby's acknowledged watermark — live across its
// sessions, so a cut stream resumes where the standby stands.
type Shipper struct {
	e  *engine.Engine
	st *stream
	f  *engine.LogFollower

	// dial is set only by StartResilientShipper; nil means one session on
	// conn.
	conn  net.Conn
	dial  func() (net.Conn, error)
	ropts ResilientOptions

	mu       sync.Mutex
	stats    ShipperStats // Acked/HasAcked are filled from the stream on read
	sessions int

	done chan struct{}
}

// StartShipper attaches a shipper to a live engine and starts streaming to
// conn. It returns immediately; the handshake, image and shipping all
// run on background goroutines (the two ends of a connection can therefore
// be started from one goroutine, in either order). The caller must Stop the
// shipper before closing the engine.
func StartShipper(e *engine.Engine, conn net.Conn, opts StreamOptions) (*Shipper, error) {
	return startShipper(e, opts, &Shipper{conn: conn})
}

// startShipper opens s's one log follower — its retention pin holds the
// whole log until the first session sets a floor — and starts s.
func startShipper(e *engine.Engine, opts StreamOptions, s *Shipper) (*Shipper, error) {
	f, err := e.FollowLog()
	if err != nil {
		return nil, err
	}
	s.e, s.f, s.done = e, f, make(chan struct{})
	s.st = newStream(opts, s.dial != nil, s.onAck)
	go s.run()
	return s, nil
}

func (s *Shipper) run() {
	defer close(s.done)
	var err error
	if s.dial == nil {
		_, err = s.attempt(1)
	} else {
		_, err = supervise(s.ropts.Backoff, s.st.Stopped(), s.attempt)
	}
	s.st.Fail(err) // ignored after Stop
	s.st.Stop()    //nolint:errcheck // marks the end for later waiters
	s.f.Close()
}

// attempt runs session n (counted from 1) on the plain shipper's conn or on
// a freshly dialled one, and reports whether it advanced the ack watermark.
func (s *Shipper) attempt(n int) (progressed bool, err error) {
	s.mu.Lock()
	s.sessions = n
	s.mu.Unlock()
	conn := s.conn
	if s.dial != nil {
		if n > 1 {
			telResumes.Inc()
		}
		if conn, err = s.dial(); err != nil {
			return false, err
		}
	}
	before, had := s.st.Acked()
	err = s.session(conn)
	after, has := s.st.Acked()
	return has && (!had || after > before), err
}

// session is one stream session on conn: handshake, image bootstrap or
// resume, then the tail-follow loop.
func (s *Shipper) session(conn net.Conn) (err error) {
	c, err := s.st.attach(conn)
	if err != nil {
		return err
	}
	defer func() { s.st.detach(err) }()
	store := s.e.Store()
	err = handshake(c, hello{
		objects:  uint64(store.NumObjects()),
		objSize:  uint32(store.ObjSize()),
		cellSize: 4,
	})
	if err != nil {
		return err
	}

	// Resume negotiation: the standby states where its engine stands. A
	// fresh standby (0) gets the image bootstrap; a reconnecting one (v>0)
	// skips it and the stream picks up at tick v-1 — its own WAL and
	// checkpoints already cover everything below.
	body, err := c.ReadFrame()
	if err != nil {
		return fmt.Errorf("replication: resume: %w", err)
	}
	resume, err := decodeU64(ftResume, body)
	if err != nil {
		return err
	}

	nextTick := resume - 1
	var img disk.Image
	if resume == 0 {
		// Bootstrap: the newest complete image, read under the engine's
		// image pin, which drops before anything is sent. The follower holds
		// the whole log until the floor is set below; the engine's own
		// pruning keeps everything past its newest image anyway.
		s.f.NeedFrom(0)
		if img, err = s.e.ReadImage(); err != nil {
			return err
		}
		nextTick = 0
		if img.Block != nil {
			nextTick = img.Header.AsOfTick + 1
		}
	}
	// The follower reads this session's stream from its floor again: what
	// an earlier session sent past it never reached the standby's engine.
	s.f.NeedFrom(nextTick)
	s.f.Restart()
	if resume == 0 {
		s.mu.Lock()
		s.stats.StartTick = nextTick
		s.stats.ImageBytes = int64(len(img.Data))
		s.mu.Unlock()
		if err := sendImage(c, img); err != nil {
			return err
		}
	}

	acks := s.st.StartAcks()

	// The live stream: every whole tick at or above nextTick the log
	// follower yields, one ftTick frame per record, until the ack reader
	// ends (the session broke, or Stop). Range installs need no special
	// casing at the image boundary: they are logged at the engine's next
	// tick (>= our nextTick), so one logged after the image's tick is
	// streamed — and re-applying absolute bytes the image already contains
	// is idempotent on the standby.
	for {
		// !ok: the ack reader ended, and recorded why.
		tick, recs, ok, err := s.f.Next(nextTick, acks)
		if err != nil || !ok {
			return err
		}
		for _, rec := range recs {
			if err := s.st.WaitLag(tick, nextTick); err != nil {
				return err
			}
			b := binary.LittleEndian.AppendUint64(c.Frame(ftTick), tick)
			if err := c.Send(append(b, rec...)); err != nil {
				return err
			}
			shipped := 9 + len(rec) // the frame body: type, tick, record
			s.mu.Lock()
			s.stats.TicksShipped++
			s.stats.BytesShipped += int64(shipped)
			s.stats.Shipped, s.stats.HasShipped = tick, true
			s.mu.Unlock()
			telTicksShipped.Inc()
			telBytesShipped.Add(uint64(shipped))
			telShippedTick.Set(int64(tick))
			if acked, ok := s.st.Acked(); ok {
				telLagTicks.Set(lagTicks(tick, acked))
			}
		}
		// Retention deliberately does NOT advance here: ticks in
		// (acked, shipped] stay in the primary's log until the standby
		// acknowledges them (onAck), so a severed connection can resume
		// from the standby's durable watermark instead of re-bootstrapping.
	}
}

// onAck is the stream's ack hook: next is the first tick the standby has
// not applied. Everything below it is applied (and durable per the
// standby's sync policy) on the other end; only then may the primary's log
// reclaim it.
func (s *Shipper) onAck(next uint64) {
	s.mu.Lock()
	shipped := s.stats.Shipped // 0 until the first tick ships
	s.mu.Unlock()
	telAckedTick.Set(int64(next - 1))
	telLagTicks.Set(lagTicks(shipped, next-1))
	s.f.NeedFrom(next)
}

// lagTicks is shipped minus acked, floored at zero (a bootstrap or resume
// ack can sit ahead of the first shipped tick).
func lagTicks(shipped, acked uint64) int64 {
	if shipped <= acked {
		return 0
	}
	return int64(shipped - acked)
}

// Stats returns a snapshot of the shipper's counters.
func (s *Shipper) Stats() ShipperStats {
	acked, hasAcked := s.st.Acked()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Acked, st.HasAcked = acked, hasAcked
	return st
}

// Sessions returns how many sessions were started: 1 for a plain shipper,
// the number of connection attempts for a reconnecting one.
func (s *Shipper) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// AwaitAck blocks until the standby has acknowledged tick — across however
// many sessions that takes — the shipper fails or is stopped, or the
// timeout elapses (timeout <= 0 waits without a deadline).
func (s *Shipper) AwaitAck(tick uint64, timeout time.Duration) error {
	return s.st.AwaitAck(tick, timeout)
}

// Done is closed when the shipper has fully stopped.
func (s *Shipper) Done() <-chan struct{} { return s.done }

// Err returns the error that ended the shipper — a plain shipper's stream
// error, a reconnecting one's fatal error — nil while running or after a
// clean Stop.
func (s *Shipper) Err() error { return s.st.Err() }

// Stop tears the shipper down: the live connection is closed (the standby
// sees the stream end and can promote), no further session starts, and the
// goroutines are joined. It returns the error that ended the shipper, or
// nil if it was healthy.
func (s *Shipper) Stop() error {
	s.st.Stop() //nolint:errcheck // reported below, once run has latched its own
	<-s.done
	return s.st.Err()
}
