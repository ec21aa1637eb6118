// Package replication implements live WAL shipping from a primary engine to
// a warm standby, the availability extension the paper's Section 8 names as
// future work: instead of bounding downtime by cold checkpoint recovery
// (restore + replay from disk), a standby keeps a second engine within a
// bounded replay lag of the primary and takes over in sub-tick time when
// the primary dies.
//
// The dataflow is deliberately log-structured, mirroring ReStore-style
// in-memory checkpoint/replication systems:
//
//	primary engine ── wal append ──► wal dir ── TailReader ──► Shipper ──► conn
//	                                                            ▲  acks │
//	                                                            └───────┤
//	conn ──► Standby ── IngestReplicated ──► standby engine (own WAL + checkpoints)
//
// The shipper is a *second concurrent consumer* of the primary's WAL: it
// tail-follows the segment being appended (wal.TailReader), woken by the
// engine's tick-commit notification, and streams a bootstrap snapshot
// followed by tick records over a single duplex connection. The standby
// acknowledges each applied tick; the shipper enforces a bounded
// number of in-flight (shipped-but-unacked) ticks, so a slow standby
// throttles shipping — it never corrupts it, and the primary never blocks
// beyond its lag budget's worth of buffering.
//
// Everything on the wire is tick-framed, length-prefixed and CRC-checked,
// so a connection cut at any byte seals the stream at the last complete
// tick: promotion after a cut is byte-identical to crash-recovering a
// primary that lost the same suffix.
package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// protocolVersion gates the handshake; both ends must match exactly.
// Version 2 added the mandatory resume frame after the welcome.
const protocolVersion = 2

// magic opens the hello frame, so a mis-wired connection fails fast with a
// clear error instead of a CRC mismatch.
var magic = [8]byte{'M', 'M', 'O', 'R', 'E', 'P', 'L', protocolVersion}

// Frame types. The stream is: hello ⇄ welcome, snapshot begin/chunk*/end,
// then tick* one way and ack* the other.
const (
	ftHello     byte = 1 // primary → standby: magic, geometry
	ftWelcome   byte = 2 // standby → primary: magic, geometry echo
	ftSnapBegin byte = 3 // nextTick u64, total snapshot bytes u64
	ftSnapChunk byte = 4 // offset u64, data
	ftSnapEnd   byte = 5 // empty
	ftTick      byte = 6 // tick u64, engine log record body
	// ftAck carries the standby's high-water applied tick: logged to the
	// standby's own WAL and applied to its slab. Durability of the
	// standby's log follows its own SyncEveryTick configuration (and
	// promotion always syncs before the engine is handed over), exactly
	// like a primary's.
	ftAck byte = 7 // tick u64
	// ftResume is the standby's one mandatory frame after the welcome: 0
	// requests a fresh bootstrap snapshot; v>0 says "my engine stands at
	// tick v-1's boundary — skip the snapshot and stream from tick v-1".
	// The +1 bias keeps a standby resuming at tick 0 distinguishable from
	// a fresh one. Reconnecting standbys (StartResilientStandby) use it to
	// pick the stream back up from their durable watermark.
	ftResume byte = 9 // nextTick+1 u64, or 0 for a fresh bootstrap
)

// Peer-RAM replica frames (internal/peerram). They ride the same framed
// connection (Conn) and the same ack-based retention discipline as the
// warm-standby stream, multiplexed over the cluster's existing connections — a replica holder is a tick-stream
// consumer that keeps compressed bytes in RAM instead of a live engine.
// Exported so internal/peerram can speak the protocol without a second
// framing layer; values stay clear of the standby stream's 1–9.
const (
	// FrameReplicaImage replaces the holder's image for one owner:
	// epoch u64, nextTick u64, rawLen u64, flate-compressed slab. The
	// holder's deltas below nextTick become obsolete and are dropped.
	FrameReplicaImage byte = 10
	// FrameReplicaDelta appends one tick record to the holder's delta tail:
	// tick u64, rawLen u64, flate-compressed engine log record body. Ticks
	// arrive in order; several records may share one tick (a range install
	// and the tick's batch).
	FrameReplicaDelta byte = 11
	// FrameReplicaAck is the holder's retention watermark: the first tick it
	// still needs from the sender's WAL (everything below is safely in the
	// holder's RAM). It plays the role ftAck plays for a standby — the
	// sender feeds it to TickSub.NeedFrom so log pruning never outruns the
	// replica.
	FrameReplicaAck byte = 12
)

// snapChunkSize is the snapshot transfer granule.
const snapChunkSize = 256 << 10

// sendSnapshot ships a tick-consistent image as snapBegin, snapChunk* and
// snapEnd frames: the bootstrap leg shared by standby sessions (whole
// slab) and range transfers (one object range).
func (s *Stream) sendSnapshot(nextTick uint64, data []byte) error {
	if err := s.c.SendU64(ftSnapBegin, nextTick, uint64(len(data))); err != nil {
		return err
	}
	for off := 0; off < len(data); off += snapChunkSize {
		end := off + snapChunkSize
		if end > len(data) {
			end = len(data)
		}
		chunk := binary.LittleEndian.AppendUint64(s.c.Frame(ftSnapChunk), uint64(off))
		if err := s.c.Send(append(chunk, data[off:end]...)); err != nil {
			return err
		}
	}
	return s.c.Send(s.c.Frame(ftSnapEnd))
}

// recvSnapshot collects the snapshot sent by sendSnapshot, enforcing the
// expected size and in-order chunking.
func recvSnapshot(c *Conn, want uint64) (nextTick uint64, snap []byte, err error) {
	body, err := c.ReadFrame()
	if err != nil {
		return 0, nil, fmt.Errorf("replication: bootstrap: %w", err)
	}
	if len(body) != 17 || body[0] != ftSnapBegin {
		return 0, nil, errors.New("replication: expected snapshot begin frame")
	}
	nextTick = binary.LittleEndian.Uint64(body[1:])
	total := binary.LittleEndian.Uint64(body[9:])
	if total != want {
		return 0, nil, fmt.Errorf("replication: snapshot is %d bytes, state holds %d", total, want)
	}
	snap = make([]byte, total)
	received := uint64(0)
	for {
		if body, err = c.ReadFrame(); err != nil {
			return 0, nil, fmt.Errorf("replication: bootstrap: %w", err)
		}
		if body[0] == ftSnapEnd {
			break
		}
		if len(body) < 9 || body[0] != ftSnapChunk {
			return 0, nil, errors.New("replication: expected snapshot chunk frame")
		}
		off := binary.LittleEndian.Uint64(body[1:])
		data := body[9:]
		if off != received || off+uint64(len(data)) > total {
			return 0, nil, fmt.Errorf("replication: snapshot chunk at %d out of order (have %d of %d)",
				off, received, total)
		}
		copy(snap[off:], data)
		received += uint64(len(data))
	}
	if received != total {
		return 0, nil, fmt.Errorf("replication: snapshot ended at %d of %d bytes", received, total)
	}
	return nextTick, snap, nil
}

// hello is the geometry handshake, sent by the primary and echoed by the
// standby; a mismatch on any field aborts the session before any data.
type hello struct {
	objects  uint64
	objSize  uint32
	cellSize uint32
}

// send ships h as a handshake frame of the given type.
func (h hello) send(c *Conn, typ byte) error {
	b := append(c.Frame(typ), magic[:]...)
	b = binary.LittleEndian.AppendUint64(b, h.objects)
	b = binary.LittleEndian.AppendUint32(b, h.objSize)
	b = binary.LittleEndian.AppendUint32(b, h.cellSize)
	return c.Send(b)
}

// expect reads the peer's handshake frame of the given type and checks its
// geometry against h.
func (h hello) expect(c *Conn, typ byte) error {
	body, err := c.ReadFrame()
	if err != nil {
		return fmt.Errorf("replication: handshake: %w", err)
	}
	if len(body) != 1+len(magic)+16 || body[0] != typ {
		return fmt.Errorf("replication: malformed handshake frame (type %d, %d bytes)", body[0], len(body))
	}
	if [8]byte(body[1:9]) != magic {
		return errors.New("replication: peer is not speaking this protocol version")
	}
	return h.check(hello{
		objects:  binary.LittleEndian.Uint64(body[9:]),
		objSize:  binary.LittleEndian.Uint32(body[17:]),
		cellSize: binary.LittleEndian.Uint32(body[21:]),
	})
}

// errGeometry marks a handshake whose two ends disagree on the state
// geometry: no retry can fix it (resilient sessions treat it as fatal).
var errGeometry = errors.New("replication: geometry mismatch")

func (h hello) check(peer hello) error {
	if h != peer {
		return fmt.Errorf("%w: local %d×%dB objects (cell %dB), peer %d×%dB (cell %dB)", errGeometry,
			h.objects, h.objSize, h.cellSize, peer.objects, peer.objSize, peer.cellSize)
	}
	return nil
}

// decodeU64 parses a type-plus-u64 body.
func decodeU64(typ byte, body []byte) (uint64, error) {
	if len(body) != 9 || body[0] != typ {
		return 0, fmt.Errorf("replication: malformed frame (want type %d, got type %d, %d bytes)",
			typ, body[0], len(body))
	}
	return binary.LittleEndian.Uint64(body[1:]), nil
}
