package session

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/wal"
)

// The wire protocol rides internal/replication's framed connection
// (replication.Conn): corruption fails loudly at the CRC, truncation at the
// length read, and each frame goes out in one Write. The session stream is:
//
//	client → gateway: hello, then intent*        (then bye or EOF)
//	gateway → client: welcome, then delta*
//
// hello carries the protocol magic, the session ID, the interest window,
// and the client's view of the world geometry; the gateway rejects a
// geometry mismatch before any state flows, the same guard the replication
// handshake applies.

// protoMagic identifies the gateway session protocol, version 1.
const protoMagic = "MMOGATE1"

// Frame types: the first body byte of every frame.
const (
	frameHello   = 1 // client→gateway: magic, id, interest, geometry
	frameWelcome = 2 // gateway→client: magic, next world tick
	frameIntent  = 3 // client→gateway: wal-encoded updates to stage
	frameDelta   = 4 // gateway→client: tick + wal-encoded interest updates
	frameBye     = 5 // client→gateway: clean disconnect
)

// maxFrame bounds a frame body; larger lengths are treated as stream
// corruption. Tighter than the server-to-server bound: clients are untrusted.
const maxFrame = 64 << 20

// appendHello appends a hello frame's body after the type byte: magic, id,
// interest, geometry.
func appendHello(b []byte, id uint64, interest Range, t gamestate.Table) []byte {
	b = append(b, protoMagic...)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint64(b, uint64(interest.Lo))
	b = binary.LittleEndian.AppendUint64(b, uint64(interest.Hi))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.NumObjects()))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.ObjSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.CellSize))
	return b
}

// parseHello decodes a hello frame's body, type byte included, and checks
// the client's geometry against the world's table t.
func parseHello(buf []byte, t gamestate.Table) (id uint64, interest Range, err error) {
	if len(buf) != 1+8+8+8+8+8+4+4 || buf[0] != frameHello || string(buf[1:9]) != protoMagic {
		return 0, Range{}, fmt.Errorf("session: bad hello frame (%d bytes)", len(buf))
	}
	id = binary.LittleEndian.Uint64(buf[9:17])
	interest = Range{
		Lo: int(binary.LittleEndian.Uint64(buf[17:25])),
		Hi: int(binary.LittleEndian.Uint64(buf[25:33])),
	}
	if objs := binary.LittleEndian.Uint64(buf[33:41]); int(objs) != t.NumObjects() ||
		binary.LittleEndian.Uint32(buf[41:45]) != uint32(t.ObjSize) ||
		binary.LittleEndian.Uint32(buf[45:49]) != uint32(t.CellSize) {
		return 0, Range{}, fmt.Errorf("session %d: client geometry disagrees with world %v", id, t)
	}
	return id, interest, nil
}

// ServeConn runs one client session over a framed connection: handshake,
// then a reader loop staging intent frames and a writer goroutine pushing
// delta frames, until EOF, bye, or error. It blocks for the session's
// lifetime — run one goroutine per accepted conn — and always disconnects
// the session and closes conn before returning. Wrap conn with
// replication.NewIdleConn to bound how long a silent client can hold a
// session slot.
func (g *Gateway) ServeConn(conn net.Conn) error {
	defer conn.Close()
	c := replication.NewConn(conn, maxFrame)
	buf, err := c.ReadFrame()
	if err != nil {
		return fmt.Errorf("session: hello: %w", err)
	}
	id, interest, err := parseHello(buf, g.Table())
	if err != nil {
		return err
	}
	s, err := g.Connect(id, interest)
	if err != nil {
		return err
	}
	defer s.Close()

	welcome := append(c.Frame(frameWelcome), protoMagic...)
	if err := c.Send(binary.LittleEndian.AppendUint64(welcome, g.world.NextTick())); err != nil {
		return err
	}

	// Writer: session deltas → delta frames; from here on the connection's
	// write half is this goroutine's alone. A write error closes the conn,
	// which unblocks the reader loop below.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-s.Gone():
				return
			case d := <-s.Deltas():
				out := binary.LittleEndian.AppendUint64(c.Frame(frameDelta), d.Tick)
				if err := c.Send(wal.EncodeUpdates(out, d.Updates)); err != nil {
					conn.Close()
					return
				}
			}
		}
	}()
	// On any exit, disconnect the session first (closing Gone) so the writer
	// goroutine unblocks, then join it.
	defer func() { s.Close(); wg.Wait() }()

	var intents []wal.Update
	for {
		if buf, err = c.ReadFrame(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch buf[0] {
		case frameIntent:
			if intents, err = wal.DecodeUpdates(intents[:0], buf[1:]); err != nil {
				return err
			}
			if err := s.Submit(intents); err != nil {
				return err
			}
		case frameBye:
			return nil
		default:
			return fmt.Errorf("session %d: unexpected frame type %d", id, buf[0])
		}
	}
}

// Client is the remote half of a TCP session: it speaks the gateway frame
// protocol over any net.Conn (wrap with replication.NewIdleConn for
// deadline enforcement). Submit and ReadDelta may run on different
// goroutines; neither is safe for concurrent use with itself.
type Client struct {
	c *replication.Conn
	// NextTick is the world tick the gateway reported at handshake.
	NextTick uint64

	wmu sync.Mutex // the connection's write half: Submit and Close
	upd []wal.Update
}

// NewClient performs the session handshake over conn: hello out, welcome
// back. table must match the server's world geometry exactly.
func NewClient(conn net.Conn, table gamestate.Table, id uint64, interest Range) (*Client, error) {
	c := replication.NewConn(conn, maxFrame)
	if err := c.Send(appendHello(c.Frame(frameHello), id, interest, table)); err != nil {
		return nil, err
	}
	buf, err := c.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("session: welcome: %w", err)
	}
	if len(buf) != 1+8+8 || buf[0] != frameWelcome || string(buf[1:9]) != protoMagic {
		return nil, fmt.Errorf("session: bad welcome frame (%d bytes)", len(buf))
	}
	return &Client{c: c, NextTick: binary.LittleEndian.Uint64(buf[9:17])}, nil
}

// Submit sends one intent frame staging updates for the gateway's next tick.
func (c *Client) Submit(updates []wal.Update) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.c.Send(wal.EncodeUpdates(c.c.Frame(frameIntent), updates))
}

// ReadDelta blocks for the next delta frame and returns its tick and
// updates. The updates slice is reused by the next call.
func (c *Client) ReadDelta() (tick uint64, updates []wal.Update, err error) {
	buf, err := c.c.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	if buf[0] != frameDelta || len(buf) < 9 {
		return 0, nil, fmt.Errorf("session: expected delta frame, got type %d (%d bytes)", buf[0], len(buf))
	}
	tick = binary.LittleEndian.Uint64(buf[1:9])
	c.upd, err = wal.DecodeUpdates(c.upd[:0], buf[9:])
	return tick, c.upd, err
}

// Close sends a clean bye and closes the connection.
func (c *Client) Close() error {
	c.wmu.Lock()
	c.c.Send(c.c.Frame(frameBye)) //nolint:errcheck // best effort: the close below ends the session either way
	c.wmu.Unlock()
	return c.c.Close()
}
