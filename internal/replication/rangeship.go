package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"repro/internal/wal"
)

// Range transfer: the migration half of the replication protocol. Moving a
// sub-range of the object space between two cluster nodes reuses the exact
// shape of standby bootstrap — a consistent snapshot of the range, then a
// stream of the ticks that happen while the snapshot is in flight, then a
// cutover marker at a tick boundary — over the same CRC-framed wire format.
// The only new frame is ftCut, which carries the first tick the *receiver*
// owns; everything before it was applied by the sender and mirrored into
// the receiver's staging buffer, so ownership changes with zero dropped
// ticks.
//
// Unlike Shipper/Standby, both ends here are driven synchronously by the
// cluster's tick barrier (internal/cluster): the sender's Send* methods are
// called between ticks on the coordinator goroutine, and the receiver runs
// one goroutine that stages into a side buffer and acknowledges each
// applied tick. The staged range only touches the target *engine* at
// cutover, via engine.InstallRange.

// ftCut ends a range stream: the receiver owns the range from the carried
// tick on. Declared here (not protocol.go) because only range sessions use
// it; the value extends the frame-type registry there.
const ftCut byte = 8

// RangeGeometry pins one range transfer: both ends must agree exactly.
type RangeGeometry struct {
	// Lo, Hi is the object range [Lo, Hi) being moved.
	Lo, Hi int
	// ObjSize is the atomic object size in bytes.
	ObjSize int
}

// hello maps the range onto the handshake frame: length and object size
// are checked on the wire; agreement on Lo itself is the coordinator's job
// (both ends are configured from one place), and a disagreement still fails
// fast — the first streamed update lands outside the receiver's range.
func (g RangeGeometry) hello() hello {
	return hello{objects: uint64(g.Hi - g.Lo), objSize: uint32(g.ObjSize), cellSize: 4}
}

// bytes returns the range's size on the wire.
func (g RangeGeometry) bytes() int { return (g.Hi - g.Lo) * g.ObjSize }

// RangeSender is the source side of a range transfer. All methods are
// called from one goroutine (the cluster coordinator, between ticks); the
// underlying Stream's reader consumes the receiver's acks.
type RangeSender struct {
	st *Stream
}

// NewRangeSender performs the geometry handshake (hello ⇄ welcome) and
// starts the ack reader. The receiver must be running on the other end.
func NewRangeSender(conn net.Conn, g RangeGeometry) (*RangeSender, error) {
	s := &RangeSender{st: NewStream(conn, StreamOptions{})}
	if err := s.st.handshake(g.hello()); err != nil {
		return nil, err
	}
	// The receiver acks the last tick it staged.
	s.st.StartAcks(ftAck, func(tick uint64) uint64 { return tick + 1 })
	return s, nil
}

// SendSnapshot ships the range bytes, consistent as of nextTick-1, in
// snapshot frames. Tick frames from nextTick on follow via SendTick.
func (s *RangeSender) SendSnapshot(nextTick uint64, data []byte) error {
	return s.st.sendSnapshot(nextTick, data)
}

// SendTick streams one tick's updates for the range (already filtered to it
// by the router). Empty batches are sent too: the receiver's applied
// watermark must advance every tick so cutover is a pure tick comparison.
// The transfer is driven in lock-step with the tick barrier, so there is no
// lag gate here — only the error latch.
func (s *RangeSender) SendTick(tick uint64, updates []wal.Update) error {
	if err := s.st.Err(); err != nil {
		return err
	}
	b := binary.LittleEndian.AppendUint64(s.st.Frame(ftTick), tick)
	return s.st.Send(wal.EncodeUpdates(b, updates))
}

// SendCut ends the stream: the receiver owns the range from cutTick on.
// The sender must have streamed every tick below cutTick.
func (s *RangeSender) SendCut(cutTick uint64) error {
	return s.st.c.SendU64(ftCut, cutTick)
}

// AwaitApplied blocks until the receiver has staged every tick up to and
// including tick, or the session fails.
func (s *RangeSender) AwaitApplied(tick uint64) error { return s.st.AwaitAck(tick, 0) }

// Err returns the first session error, nil while healthy.
func (s *RangeSender) Err() error { return s.st.Err() }

// Close tears the session down and joins the ack reader.
func (s *RangeSender) Close() error { return s.st.Stop() }

// RangeReceiver is the target side: it stages the snapshot and the streamed
// ticks into a side buffer and acknowledges progress. Run blocks until the
// cut frame arrives (clean end) or the session fails; the staged buffer is
// then ready for engine.InstallRange at the cutover barrier.
type RangeReceiver struct {
	c    *Conn
	geom RangeGeometry

	buf       []byte // the staged range, len == geom.bytes() after bootstrap
	nextTick  uint64 // first tick the snapshot does not cover
	staged    uint64 // high-water staged tick (valid once stagedAny)
	stagedAny bool
	cutTick   uint64
}

// NewRangeReceiver prepares the target side of a transfer. Run drives it.
func NewRangeReceiver(conn net.Conn, g RangeGeometry) *RangeReceiver {
	return &RangeReceiver{c: NewConn(conn, MaxFrameSize), geom: g}
}

// Run performs the handshake, stages the snapshot and every streamed tick,
// acks each, and returns when the cut frame arrives. On a nil error the
// staged range (Buffer) holds the objects' bytes as of CutTick-1. On error
// the connection is closed before returning, so a sender blocked on the
// (possibly synchronous) conn unblocks with an error instead of wedging
// its driver.
func (r *RangeReceiver) Run() error {
	err := r.run()
	if err != nil {
		r.c.Close() //nolint:errcheck // unblocks the sender; best effort
	}
	return err
}

func (r *RangeReceiver) run() error {
	err := acceptHandshake(r.c, r.geom.hello())
	if err != nil {
		return err
	}

	// Bootstrap: the range snapshot.
	r.nextTick, r.buf, err = recvSnapshot(r.c, uint64(r.geom.bytes()))
	if err != nil {
		return err
	}
	if r.nextTick > 0 {
		r.staged, r.stagedAny = r.nextTick-1, true
		if err := r.c.SendU64(ftAck, r.nextTick-1); err != nil {
			return err
		}
	}

	// Stream: stage each tick's updates into the side buffer, ack, until
	// the cut.
	var updates []wal.Update
	for {
		body, err := r.c.ReadFrame()
		if err != nil {
			return err
		}
		switch body[0] {
		case ftCut:
			cut, err := decodeU64(ftCut, body)
			if err != nil {
				return err
			}
			if r.stagedAny && cut != r.staged+1 {
				return fmt.Errorf("replication: cut at tick %d but staged through %d", cut, r.staged)
			}
			r.cutTick = cut
			return nil
		case ftTick:
			if len(body) < 9 {
				return errors.New("replication: short range tick frame")
			}
			tick := binary.LittleEndian.Uint64(body[1:])
			if r.stagedAny && tick != r.staged+1 {
				return fmt.Errorf("replication: range stream gap: got tick %d, staged through %d", tick, r.staged)
			}
			updates, err = wal.DecodeUpdates(updates[:0], body[9:])
			if err != nil {
				return fmt.Errorf("replication: range tick %d: %w", tick, err)
			}
			for _, u := range updates {
				if err := r.stage(u); err != nil {
					return fmt.Errorf("replication: range tick %d: %w", tick, err)
				}
			}
			r.staged, r.stagedAny = tick, true
			if err := r.c.SendU64(ftAck, tick); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replication: unexpected frame type %d in range stream", body[0])
		}
	}
}

// stage applies one cell update to the side buffer. The router only streams
// updates whose object falls in the range; anything else is a protocol bug.
func (r *RangeReceiver) stage(u wal.Update) error {
	cellsPerObj := uint32(r.geom.ObjSize / 4)
	obj := int(u.Cell / cellsPerObj)
	if obj < r.geom.Lo || obj >= r.geom.Hi {
		return fmt.Errorf("streamed update for object %d outside range [%d,%d)", obj, r.geom.Lo, r.geom.Hi)
	}
	off := int(u.Cell)*4 - r.geom.Lo*r.geom.ObjSize
	binary.LittleEndian.PutUint32(r.buf[off:], u.Value)
	return nil
}

// Buffer returns the staged range bytes; valid after Run returns nil.
func (r *RangeReceiver) Buffer() []byte { return r.buf }

// CutTick returns the first tick the receiver owns; valid after Run
// returns nil.
func (r *RangeReceiver) CutTick() uint64 { return r.cutTick }
