package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Frame layout, the same under every protocol in this repository (standby,
// range transfer, peer-RAM replica, cluster node, client session): u32
// length, u32 CRC32-IEEE of the body, body. Both integers are little-endian,
// length counts the body only, and the body's first byte is the frame type.
const frameHeader = 8

// MaxFrameSize bounds one frame body on replication, peer-RAM and cluster
// links; larger lengths mark a corrupt or hostile stream. It must
// accommodate a whole tick record (mirrors wal's record bound) plus the
// frame type byte and a snapshot chunk.
const MaxFrameSize = 1<<28 + 64

// growStep is the least the reader may allocate ahead of the body bytes it
// has actually received. A frame up to this size is read in one piece into
// an exactly-sized buffer; a larger one on a cold buffer doubles its way up,
// so the buffer never exceeds twice what the peer has really sent plus one
// step, and a length field alone never sizes an allocation.
const growStep = 64 << 10

// Conn is one framed duplex connection: the frame codec, its read and write
// buffers, the size bound and the growth rule, once, under every stream
// protocol. It adds no buffering of its own in either direction — a frame
// goes out in exactly one Write (chaos.Conn's drop and sever shapes are
// defined per Write, so a dropped Write loses one whole frame and never
// desynchronises the stream), and a read never consumes a byte past the
// frame it returns.
//
// The read half (ReadFrame) and the write half (Frame, Send, SendU64) share
// no state: one goroutine may read while another writes. Neither half is
// safe for concurrent use with itself.
type Conn struct {
	nc   net.Conn
	max  uint32
	rhdr [frameHeader]byte // read half: the current header (a field: no per-frame escape)
	rbuf []byte            // read half: the last frame's body
	wbuf []byte            // write half: header room, then the frame being built
}

// NewConn frames nc. maxBody is the largest body the reader accepts
// (MaxFrameSize between servers; less where the peer is untrusted).
func NewConn(nc net.Conn, maxBody int) *Conn {
	return &Conn{nc: nc, max: uint32(maxBody), wbuf: make([]byte, frameHeader, 64)}
}

// Frame starts a frame of the given type in the write buffer and returns it
// for the caller to append the rest of the body to; Send ships it. The slice
// is valid until the next Frame call.
func (c *Conn) Frame(typ byte) []byte {
	return append(c.wbuf[:frameHeader], typ)
}

// Send patches length and CRC into the header room in front of b — a slice
// Frame returned, with the body appended — and issues exactly one Write.
func (c *Conn) Send(b []byte) error {
	c.wbuf = b // keep whatever growth the caller's appends caused
	body := b[frameHeader:]
	binary.LittleEndian.PutUint32(b[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(body))
	_, err := c.nc.Write(b)
	return err
}

// SendU64 sends a frame whose body is the type byte followed by the given
// u64s: every ack, watermark and fixed-size reply on every protocol.
func (c *Conn) SendU64(typ byte, vs ...uint64) error {
	b := c.Frame(typ)
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return c.Send(b)
}

// ReadFrame reads one frame and returns its body, which aliases the read
// buffer and is valid until the next call. io errors pass through unwrapped
// so callers can distinguish a cut connection (seal point) from in-stream
// corruption.
func (c *Conn) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(c.nc, c.rhdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(c.rhdr[0:])
	if length == 0 || length > c.max {
		return nil, fmt.Errorf("replication: frame length %d outside (0,%d]", length, c.max)
	}
	// Steady state is one ReadFull into the retained buffer. A buffer that
	// is too small grows only as body bytes arrive.
	n := int(length)
	for have := 0; have < n; {
		end := min(n, max(cap(c.rbuf), have+max(have, growStep)))
		if cap(c.rbuf) < end {
			grown := make([]byte, end)
			copy(grown, c.rbuf[:have])
			c.rbuf = grown
		}
		c.rbuf = c.rbuf[:end]
		if _, err := io.ReadFull(c.nc, c.rbuf[have:end]); err != nil {
			return nil, err
		}
		have = end
	}
	if crc32.ChecksumIEEE(c.rbuf) != binary.LittleEndian.Uint32(c.rhdr[4:]) {
		return nil, errors.New("replication: frame checksum mismatch")
	}
	return c.rbuf, nil
}

// Close closes the underlying connection, unblocking both halves.
func (c *Conn) Close() error { return c.nc.Close() }
