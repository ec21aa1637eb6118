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

// idlePoll is the tail-follow loop's fallback wake-up when no tick-commit
// signal arrives (the engine is idle, or a record was appended before the
// sender subscribed).
const idlePoll = 5 * time.Millisecond

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
	e   *engine.Engine
	st  *replication.Stream
	sub *engine.TickSub

	refresh chan chan error
	done    chan struct{}
}

// StartSender attaches a replica sender to a live engine and starts
// streaming to conn (the holder's end is a Holder). It returns immediately;
// the initial image ships on a background goroutine. The caller must Stop
// the sender before closing the engine.
func StartSender(e *engine.Engine, conn net.Conn, opts replication.StreamOptions) (*Sender, error) {
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	s := &Sender{
		e:       e,
		st:      replication.NewStream(conn, opts),
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
	b := binary.LittleEndian.AppendUint64(s.st.Frame(replication.FrameReplicaImage), epoch)
	b = binary.LittleEndian.AppendUint64(b, nextTick)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(snap)))
	return nextTick, s.st.Send(append(b, comp...))
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
		b := binary.LittleEndian.AppendUint64(s.st.Frame(replication.FrameReplicaDelta), cur)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(recs)))
		have, recs = false, recs[:0]
		return s.st.Send(append(b, comp...))
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
		case <-time.After(idlePoll):
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
	c     *replication.Conn

	mu      sync.Mutex
	err     error
	stopped bool
	done    chan struct{}
}

// StartHolder starts ingesting replica frames for owner into store.
func StartHolder(owner int, store *Store, conn net.Conn) *Holder {
	h := &Holder{owner: owner, store: store, c: replication.NewConn(conn, replication.MaxFrameSize), done: make(chan struct{})}
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
	h.c.Close() //nolint:errcheck // unblocks the sender; best effort
}

func (h *Holder) serve() error {
	for {
		body, err := h.c.ReadFrame()
		if err != nil {
			return err
		}
		var w uint64
		switch body[0] {
		case replication.FrameReplicaImage:
			if len(body) < 25 {
				return fmt.Errorf("peerram: short image frame (%d bytes)", len(body))
			}
			epoch := binary.LittleEndian.Uint64(body[1:])
			nextTick := binary.LittleEndian.Uint64(body[9:])
			rawLen, comp, err := replicaPayload(body[17:])
			if err != nil {
				return err
			}
			if w, err = h.store.PutImage(h.owner, epoch, nextTick, rawLen, comp); err != nil {
				return err
			}
		case replication.FrameReplicaDelta:
			if len(body) < 17 {
				return fmt.Errorf("peerram: short delta frame (%d bytes)", len(body))
			}
			tick := binary.LittleEndian.Uint64(body[1:])
			rawLen, comp, err := replicaPayload(body[9:])
			if err != nil {
				return err
			}
			if w, err = h.store.PutDelta(h.owner, tick, rawLen, comp); err != nil {
				return err
			}
		default:
			return fmt.Errorf("peerram: unexpected frame type %d", body[0])
		}
		if err := h.c.SendU64(replication.FrameReplicaAck, w); err != nil {
			return err
		}
	}
}

// replicaPayload splits the tail both replica frames share — u64 rawLen,
// then the flate stream — copying the compressed bytes out of the read
// buffer. rawLen comes from outside and later sizes the restore path's
// buffer, so one DEFLATE cannot produce (ErrRawLen) is refused here, before
// the store changes.
func replicaPayload(p []byte) (rawLen int, comp []byte, err error) {
	raw := binary.LittleEndian.Uint64(p)
	comp = p[8:]
	if raw > maxInflated(len(comp)) {
		return 0, nil, fmt.Errorf("%w: frame declares %d bytes for a %d-byte stream", ErrRawLen, raw, len(comp))
	}
	return int(raw), append([]byte(nil), comp...), nil
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
	h.c.Close() //nolint:errcheck // unblocks the read loop
	<-h.done
	return h.Err()
}
