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
//	primary engine ── wal append ──► wal dir ── engine.LogFollower ──► Shipper ──► conn
//	                                                                    ▲  acks │
//	                                                                    └───────┤
//	conn ──► Standby ── IngestReplicated ──► standby engine (own WAL + checkpoints)
//
// A standby bootstraps the way a crashed server recovers: the shipper sends
// the primary's newest complete backup image as it lies on disk (header
// block and populated runs, read under the engine's image pin), the standby
// writes it into its own backup and opens through engine.RecoverFrom, and
// the log from the image's tick on follows. The shipper is a *second
// concurrent consumer* of the primary's WAL: an engine.LogFollower
// tail-follows the segment being appended, woken by the engine's
// tick-commit notification, and hands back whole committed ticks, streamed
// over a duplex connection — the one replica wire protocol in the
// repository. One Shipper type serves both shapes: a single connection
// (StartShipper), or sessions it redials after a cut
// (StartResilientShipper), with one ack watermark and one log follower
// kept across them. The standby acknowledges each applied tick; the
// shipper enforces a bounded number of in-flight (shipped-but-unacked)
// ticks, so a slow standby throttles shipping — it never corrupts it, and
// the primary never blocks beyond its lag budget's worth of buffering.
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

	"repro/internal/disk"
)

// protocolVersion gates the handshake; both ends must match exactly.
// Version 2 added the mandatory resume frame after the welcome; version 3
// ships a backup image instead of a slab snapshot.
const protocolVersion = 3

// magic opens the hello frame, so a mis-wired connection fails fast with a
// clear error instead of a CRC mismatch.
var magic = [8]byte{'M', 'M', 'O', 'R', 'E', 'P', 'L', protocolVersion}

// Frame types. The stream is: hello ⇄ welcome, resume, image header,
// run* and end (a fresh standby's bootstrap; the end alone when the primary
// has no image), then tick* one way and ack* the other. Values are
// wire-stable; 8 and 10–12 are unassigned.
const (
	ftHello       byte = 1 // primary → standby: magic, geometry
	ftWelcome     byte = 2 // standby → primary: magic, geometry echo
	ftImageHeader byte = 3 // the image's disk.HeaderSize header block
	ftImageRun    byte = 4 // first object u64, whole objects of covered words
	ftImageEnd    byte = 5 // empty
	ftTick        byte = 6 // tick u64, engine log record body
	// ftAck carries the standby's high-water applied tick: logged to the
	// standby's own WAL and applied to its slab. Durability of the
	// standby's log follows its own SyncEveryTick configuration (and
	// promotion always syncs before the engine is handed over), exactly
	// like a primary's.
	ftAck byte = 7 // tick u64
	// ftResume is the standby's one mandatory frame after the welcome: 0
	// requests a fresh bootstrap image; v>0 says "my engine stands at tick
	// v-1's boundary — skip the image and stream from tick v-1".
	// The +1 bias keeps a standby resuming at tick 0 distinguishable from
	// a fresh one. Reconnecting standbys (StartResilientStandby) use it to
	// pick the stream back up from their durable watermark.
	ftResume byte = 9 // nextTick+1 u64, or 0 for a fresh bootstrap
)

// imageRun bounds the bytes of one run frame.
const imageRun = 256 << 10

// sendImage ships img, read off the primary's backup, as an image header
// frame, its populated runs cut into frames of at most imageRun bytes, and an
// end frame: a fresh standby's bootstrap leg. The zero Image is the end alone.
func sendImage(c *Conn, img disk.Image) error {
	if img.Block != nil {
		if err := c.Send(append(c.Frame(ftImageHeader), img.Block...)); err != nil {
			return err
		}
		sz := int(img.Header.ObjSize)
		per, data := max(1, imageRun/sz), img.Data
		err := img.Map.EachRun(0, int(img.Header.Objects), func(start, end int) error {
			for ; start < end; start += per {
				n := min(per, end-start) * sz
				b := binary.LittleEndian.AppendUint64(c.Frame(ftImageRun), uint64(start))
				if err := c.Send(append(b, data[:n]...)); err != nil {
					return err
				}
				data = data[n:]
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return c.Send(c.Frame(ftImageEnd))
}

// recvImage lands the image sendImage ships on b through disk.Install, which
// checks the header against b's geometry and each run against the header's
// map before it writes, and returns the first tick the image does not cover
// (0: the primary had none) and the object bytes received.
func recvImage(c *Conn, b *disk.Backup) (next uint64, n int64, err error) {
	body, err := c.ReadFrame()
	if err == nil && len(body) == 1 && body[0] == ftImageEnd {
		return 0, 0, nil
	}
	if err == nil && body[0] != ftImageHeader {
		err = fmt.Errorf("expected an image header frame, got type %d", body[0])
	}
	var h disk.Header
	if err == nil {
		h, err = b.Install(body[1:], func(start, _ int) ([]byte, error) {
			body, err := c.ReadFrame()
			if err == nil && (len(body) < 9 || body[0] != ftImageRun || binary.LittleEndian.Uint64(body[1:]) != uint64(start)) {
				err = fmt.Errorf("image frame (type %d, %d bytes) where the run at object %d belongs", body[0], len(body), start)
			}
			if err != nil {
				return nil, err
			}
			n += int64(len(body) - 9)
			return body[9:], nil
		}, func() error {
			body, err := c.ReadFrame()
			if err == nil && (len(body) != 1 || body[0] != ftImageEnd) {
				err = fmt.Errorf("frame type %d where the image ends", body[0])
			}
			return err
		})
	}
	if err != nil {
		return 0, 0, fmt.Errorf("replication: bootstrap: %w", err)
	}
	return h.AsOfTick + 1, n, nil
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
	peer, err := readHello(c, typ)
	if err != nil {
		return err
	}
	return h.check(peer)
}

// readHello reads a handshake frame of the given type and returns the
// geometry it carries, unchecked.
func readHello(c *Conn, typ byte) (hello, error) {
	body, err := c.ReadFrame()
	if err != nil {
		return hello{}, fmt.Errorf("replication: handshake: %w", err)
	}
	if len(body) != 1+len(magic)+16 || body[0] != typ {
		return hello{}, fmt.Errorf("replication: malformed handshake frame (type %d, %d bytes)", body[0], len(body))
	}
	if [8]byte(body[1:9]) != magic {
		return hello{}, errors.New("replication: peer is not speaking this protocol version")
	}
	return hello{
		objects:  binary.LittleEndian.Uint64(body[9:]),
		objSize:  binary.LittleEndian.Uint32(body[17:]),
		cellSize: binary.LittleEndian.Uint32(body[21:]),
	}, nil
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
