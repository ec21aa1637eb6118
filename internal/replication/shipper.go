package replication

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// ShipperStats is a snapshot of a shipper's progress counters.
type ShipperStats struct {
	// StartTick is the first tick the stream carries (the bootstrap
	// snapshot covers everything before it).
	StartTick uint64
	// SnapshotBytes is the size of the bootstrap image shipped.
	SnapshotBytes int64
	// TicksShipped and BytesShipped count ftTick traffic.
	TicksShipped int64
	BytesShipped int64
	// Shipped and Acked are the high-water ticks sent and acknowledged.
	Shipped, Acked       uint64
	HasShipped, HasAcked bool
}

// Shipper streams a primary engine to one standby: bootstrap snapshot
// first, then the whole ticks an engine.LogFollower reads from the engine's
// log, over an ack-bounded stream. Start it with StartShipper; it
// runs until the connection breaks, the engine closes, or Stop.
type Shipper struct {
	e     *engine.Engine
	st    *stream
	f     *engine.LogFollower
	acked func(tick uint64) // a supervisor's ack hook; nil for a plain shipper

	mu    sync.Mutex
	stats ShipperStats // Acked/HasAcked are filled from the stream on read

	done chan struct{}
}

// StartShipper attaches a shipper to a live engine and starts streaming to
// conn. It returns immediately; the handshake, snapshot and shipping all
// run on background goroutines (the two ends of a connection can therefore
// be started from one goroutine, in either order). The caller must Stop the
// shipper before closing the engine.
func StartShipper(e *engine.Engine, conn net.Conn, opts StreamOptions) (*Shipper, error) {
	return startShipper(e, conn, opts, nil)
}

// startShipper is StartShipper with acked, if non-nil, called on the ack
// reader goroutine for every acknowledgement the standby sends.
func startShipper(e *engine.Engine, conn net.Conn, opts StreamOptions, acked func(tick uint64)) (*Shipper, error) {
	f, err := e.FollowLog()
	if err != nil {
		return nil, err
	}
	s := &Shipper{
		e:     e,
		st:    newStream(conn, opts),
		f:     f,
		acked: acked,
		done:  make(chan struct{}),
	}
	go s.run()
	return s, nil
}

func (s *Shipper) run() {
	defer close(s.done)
	s.st.Fail(s.ship())
	s.st.Stop() //nolint:errcheck // closes the conn (unblocks the peer) and joins the ack reader
	s.f.Close()
}

// ship is the shipper's main line: handshake, snapshot bootstrap, then the
// tail-follow loop.
func (s *Shipper) ship() error {
	store := s.e.Store()
	err := s.st.handshake(hello{
		objects:  uint64(store.NumObjects()),
		objSize:  uint32(store.ObjSize()),
		cellSize: 4,
	})
	if err != nil {
		return err
	}

	// Resume negotiation: the standby states where its engine stands. A
	// fresh standby (0) gets the full bootstrap; a reconnecting one (v>0)
	// skips the snapshot and the stream picks up at tick v-1 — its own WAL
	// and checkpoints already cover everything below.
	body, err := s.st.c.ReadFrame()
	if err != nil {
		return fmt.Errorf("replication: resume: %w", err)
	}
	resume, err := decodeU64(ftResume, body)
	if err != nil {
		return err
	}

	var nextTick uint64
	var snap []byte
	if resume == 0 {
		// Bootstrap: a consistent image as of nextTick-1, shipped in
		// chunks. The engine keeps ticking while this streams; the WAL
		// retains everything from nextTick for us (NeedFrom below).
		if nextTick, snap, err = s.e.Snapshot(); err != nil {
			return err
		}
	} else {
		nextTick = resume - 1
	}
	s.f.NeedFrom(nextTick)
	s.mu.Lock()
	s.stats.StartTick = nextTick
	s.stats.SnapshotBytes = int64(len(snap))
	s.mu.Unlock()
	if resume == 0 {
		if err := s.st.sendSnapshot(nextTick, snap); err != nil {
			return err
		}
	}

	s.st.StartAcks(s.onAck)

	// The live stream: every whole tick at or above nextTick the log
	// follower yields, one ftTick frame per record. Range installs need no
	// special casing at the snapshot boundary: they are logged at the
	// engine's next tick (>= our nextTick), so one sharing the snapshot's
	// inter-tick window is streamed regardless of which side of the copy it
	// landed on — and re-applying absolute bytes the snapshot already
	// contains is idempotent on the standby.
	for {
		tick, recs, ok, err := s.f.Next(nextTick, s.st.Stopped())
		if err != nil || !ok {
			return err
		}
		for _, rec := range recs {
			if err := s.st.WaitLag(tick, nextTick); err != nil {
				return err
			}
			b := binary.LittleEndian.AppendUint64(s.st.Frame(ftTick), tick)
			if err := s.st.Send(append(b, rec...)); err != nil {
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

// onAck is the stream's ack hook: tick is the standby's high-water applied
// tick. Everything at or below it is applied (and durable per the standby's
// sync policy) on the other end; only then may the primary's log reclaim it.
func (s *Shipper) onAck(tick uint64) (next uint64) {
	s.mu.Lock()
	shipped := s.stats.Shipped // 0 until the first tick ships
	s.mu.Unlock()
	telAckedTick.Set(int64(tick))
	telLagTicks.Set(lagTicks(shipped, tick))
	s.f.NeedFrom(tick + 1)
	if s.acked != nil {
		s.acked(tick)
	}
	return tick + 1
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
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Acked, st.HasAcked = s.st.Acked()
	return st
}

// AwaitAck blocks until the standby has acknowledged tick, the stream
// fails, or the timeout elapses.
func (s *Shipper) AwaitAck(tick uint64, timeout time.Duration) error {
	return s.st.AwaitAck(tick, timeout)
}

// Done is closed when the shipper has fully stopped.
func (s *Shipper) Done() <-chan struct{} { return s.done }

// Err returns the stream error that ended the shipper, nil while running or
// after a clean Stop.
func (s *Shipper) Err() error { return s.st.Err() }

// Stop tears the session down: the connection is closed (the standby sees
// the stream end and can promote) and the goroutines joined. It returns the
// first stream error, or nil if the session was healthy.
func (s *Shipper) Stop() error {
	s.st.Stop() //nolint:errcheck // reported below, once run has latched its own
	<-s.done
	return s.st.Err()
}
