package peerram

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/replication"
	"repro/internal/wal"
)

// Sender streams one engine's checkpoint image and dirty-since-cut tick
// deltas into one peer's replica store. It is the warm-standby shipper with
// the standby replaced by compressed RAM: the same WAL tail-follow woken by
// the engine's tick-commit signal, and the same ack-bounded
// replication.Stream underneath — CRC framing, lag gate, ack-based
// retention (the holder's watermark feeds TickSub.NeedFrom) — with no fsync
// anywhere on the tick path.
//
// Deltas are shipped one complete tick per frame: the sender holds a tick's
// records back until the engine's commit watermark proves the tick is fully
// in the log (or a later tick's record appears, which proves the same), so
// a connection cut can only ever cost whole ticks at the holder — the
// replica never holds a torn tick.
type Sender struct {
	e    *engine.Engine
	st   *replication.Stream
	opts replication.StreamOptions
	sub  *engine.TickSub

	refresh chan chan error
	done    chan struct{}
}

// StartSender attaches a replica sender to a live engine and starts
// streaming to conn (the holder's end is a Holder). It returns immediately;
// the initial image ships on a background goroutine. The caller must Stop
// the sender before closing the engine.
func StartSender(e *engine.Engine, conn net.Conn, opts replication.StreamOptions) (*Sender, error) {
	opts = opts.WithDefaults()
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	s := &Sender{
		e:       e,
		st:      replication.NewStream(conn, opts),
		opts:    opts,
		sub:     sub,
		refresh: make(chan chan error, 1),
		done:    make(chan struct{}),
	}
	go s.run()
	return s, nil
}

func (s *Sender) run() {
	defer close(s.done)
	s.st.Fail(s.ship())
	s.st.Stop() //nolint:errcheck // closes the conn (unblocks the holder) and joins the ack reader
	s.sub.Close()
}

// shipImage snapshots the engine, compresses the slab, and ships it as one
// image frame. It returns the image floor (the first tick the image does
// not cover) so the delta stream can skip everything below it.
func (s *Sender) shipImage() (uint64, error) {
	nextTick, snap, err := s.e.Snapshot()
	if err != nil {
		return 0, err
	}
	epoch := s.e.CheckpointEpoch()
	comp, err := deflate(snap)
	if err != nil {
		return 0, err
	}
	body := make([]byte, 0, 25+len(comp))
	body = append(body, replication.FrameReplicaImage)
	body = binary.LittleEndian.AppendUint64(body, epoch)
	body = binary.LittleEndian.AppendUint64(body, nextTick)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(snap)))
	body = append(body, comp...)
	return nextTick, s.st.Send(body)
}

// ship is the sender's main line: initial image, then the commit-gated
// bundle loop tail-following the engine's WAL.
func (s *Sender) ship() error {
	floor, err := s.shipImage()
	if err != nil {
		return err
	}
	s.sub.NeedFrom(floor)

	// The holder acks with its retention watermark — the first tick it still
	// needs, everything below being safe in its RAM — which is the stream's
	// own form and exactly what the engine's log retention takes.
	s.st.StartAcks(replication.FrameReplicaAck, func(w uint64) uint64 {
		s.sub.NeedFrom(w)
		return w
	})

	tail := wal.NewTailReader(s.e.WALDir(), floor)
	defer tail.Close()

	var (
		cur     uint64 // tick being accumulated
		have    bool   // recs holds records of cur
		recs    []byte // raw bundle: u32-length-prefixed records of cur
		commit  uint64 // engine's latest committed tick
		sawComm bool
	)
	flush := func() error {
		if !have {
			return nil
		}
		comp, err := deflate(recs)
		if err != nil {
			return err
		}
		if err := s.st.WaitLag(cur, floor); err != nil {
			return err
		}
		body := make([]byte, 0, 17+len(comp))
		body = append(body, replication.FrameReplicaDelta)
		body = binary.LittleEndian.AppendUint64(body, cur)
		body = binary.LittleEndian.AppendUint64(body, uint64(len(recs)))
		body = append(body, comp...)
		have, recs = false, recs[:0]
		return s.st.Send(body)
	}
	for {
		select {
		case <-s.st.Stopped():
			return nil
		default:
		}
		// Fold any queued commit signals into the watermark (non-blocking:
		// the channel coalesces to the newest tick).
		select {
		case c := <-s.sub.C:
			commit, sawComm = c, true
		default:
		}
		tick, payload, ok, err := tail.TryNext()
		if err != nil {
			return err
		}
		if ok {
			if tick < floor {
				continue // covered by the image
			}
			if have && tick != cur {
				// A later tick's record proves cur is fully read.
				if err := flush(); err != nil {
					return err
				}
			}
			if !have {
				cur, have = tick, true
			}
			recs = binary.LittleEndian.AppendUint32(recs, uint32(len(payload)))
			recs = append(recs, payload...)
			continue
		}
		// Dry tail: the accumulated tick is complete iff the engine has
		// committed it (commit ⇒ flushed ⇒ everything of cur was readable).
		if have && sawComm && commit >= cur {
			if err := flush(); err != nil {
				return err
			}
		}
		select {
		case <-s.st.Stopped():
			return nil
		case reply := <-s.refresh:
			nt, err := s.shipImage()
			if err != nil {
				reply <- err
				return err
			}
			if nt > floor {
				floor = nt
			}
			if have && cur < floor {
				have, recs = false, recs[:0] // superseded by the new image
			}
			reply <- nil
		case c := <-s.sub.C:
			commit, sawComm = c, true
		case <-time.After(s.opts.IdlePoll):
		}
	}
}

// RefreshImage ships a fresh checkpoint image (superseding the holder's
// deltas below the new floor) and waits for it to be written to the stream.
// The cluster calls it after every coordinated world checkpoint, so a
// holder's replica tracks the newest cut and its delta tail stays short.
func (s *Sender) RefreshImage() error {
	reply := make(chan error, 1)
	select {
	case s.refresh <- reply:
	case <-s.done:
		return s.failure()
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return s.failure()
	}
}

func (s *Sender) failure() error {
	if err := s.st.Err(); err != nil {
		return err
	}
	return replication.ErrStopped
}

// AwaitAck blocks until the holder's watermark passes tick (its RAM covers
// everything at or below tick), the stream fails, or the timeout elapses.
func (s *Sender) AwaitAck(tick uint64, timeout time.Duration) error {
	return s.st.AwaitAck(tick, timeout)
}

// Stop tears the link down and joins the goroutines. It returns the first
// stream error, or nil if the link was healthy.
func (s *Sender) Stop() error {
	s.st.Stop() //nolint:errcheck // reported below, once run has latched its own
	<-s.done
	return s.st.Err()
}

// Holder is the receiving end of one replica link: it ingests image and
// delta frames into a Store and answers each with the store's retention
// watermark. One holder goroutine serves one (owner, holder-node) link.
type Holder struct {
	owner int
	store *Store
	conn  net.Conn

	mu      sync.Mutex
	err     error
	stopped bool
	done    chan struct{}
}

// StartHolder starts ingesting replica frames for owner into store.
func StartHolder(owner int, store *Store, conn net.Conn) *Holder {
	h := &Holder{owner: owner, store: store, conn: conn, done: make(chan struct{})}
	go h.run()
	return h
}

func (h *Holder) run() {
	defer close(h.done)
	err := h.serve()
	h.mu.Lock()
	if h.err == nil && err != nil && !h.stopped {
		h.err = err
	}
	h.mu.Unlock()
	h.conn.Close() //nolint:errcheck // unblocks the sender; best effort
}

func (h *Holder) serve() error {
	var rbuf, scratch []byte
	for {
		body, nbuf, err := replication.ReadFrame(h.conn, rbuf)
		if err != nil {
			return err
		}
		rbuf = nbuf
		var w uint64
		switch body[0] {
		case replication.FrameReplicaImage:
			if len(body) < 25 {
				return fmt.Errorf("peerram: short image frame (%d bytes)", len(body))
			}
			epoch := binary.LittleEndian.Uint64(body[1:])
			nextTick := binary.LittleEndian.Uint64(body[9:])
			rawLen := binary.LittleEndian.Uint64(body[17:])
			comp := append([]byte(nil), body[25:]...) // rbuf is reused
			if w, err = h.store.PutImage(h.owner, epoch, nextTick, int(rawLen), comp); err != nil {
				return err
			}
		case replication.FrameReplicaDelta:
			if len(body) < 17 {
				return fmt.Errorf("peerram: short delta frame (%d bytes)", len(body))
			}
			tick := binary.LittleEndian.Uint64(body[1:])
			rawLen := binary.LittleEndian.Uint64(body[9:])
			comp := append([]byte(nil), body[17:]...)
			if w, err = h.store.PutDelta(h.owner, tick, int(rawLen), comp); err != nil {
				return err
			}
		default:
			return fmt.Errorf("peerram: unexpected frame type %d", body[0])
		}
		ack := make([]byte, 0, 9)
		ack = append(ack, replication.FrameReplicaAck)
		ack = binary.LittleEndian.AppendUint64(ack, w)
		if scratch, err = replication.WriteFrame(h.conn, scratch, ack); err != nil {
			return err
		}
	}
}

// Err returns the stream error that ended the holder, nil while running or
// after a clean Stop.
func (h *Holder) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Stop closes the link and joins the ingest goroutine.
func (h *Holder) Stop() error {
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
	h.conn.Close() //nolint:errcheck // unblocks the read loop
	<-h.done
	return h.Err()
}
