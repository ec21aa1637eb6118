package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/wal"
)

// The cluster wire protocol: a coordinator drives N node processes over one
// framed duplex connection each (replication.Conn; body byte 0 is the
// command). The tick barrier is the coordinator's send-all-then-await-all
// round: a node acknowledges a tick only after applying it, and the
// coordinator does not issue tick T+1 until every node acknowledged T — the
// distributed twin of the in-process cluster at MaxSkew = 0. cmd/cluster wraps
// this in two process roles; the tests drive it over net.Pipe.

// Command bytes. The numeric range is disjoint from the replication
// session's frame types so a mis-wired connection fails fast.
const (
	cmdHello        byte = 0x10 // coord → node: table geometry (4 × u64)
	cmdWelcome      byte = 0x11 // node → coord: u64 next tick
	cmdTick         byte = 0x12 // coord → node: u64 tick, wal.EncodeUpdates batch
	cmdTickOK       byte = 0x13 // node → coord: u64 tick (applied)
	cmdCheckpoint   byte = 0x14 // coord → node: u64 cut tick
	cmdCheckpointOK byte = 0x15 // node → coord: u64 epoch, u64 as-of tick
	cmdHashRange    byte = 0x16 // coord → node: u64 lo, u64 hi (objects)
	cmdHashOK       byte = 0x17 // node → coord: u64 CRC32-IEEE of the range
	cmdBye          byte = 0x18 // coord → node: clean shutdown
	cmdErr          byte = 0x1f // node → coord: error text; session over
)

// ServeNode runs one node's side of a coordinator session: apply ticks,
// checkpoint on command, hash ranges for verification. It returns nil on a
// clean Bye or peer close; an application error is reported to the
// coordinator as a cmdErr frame and returned.
func ServeNode(conn net.Conn, e *engine.Engine) error {
	c := replication.NewConn(conn, replication.MaxFrameSize)
	var updates []wal.Update
	fail := func(err error) error {
		c.Send(append(c.Frame(cmdErr), err.Error()...)) //nolint:errcheck // err is what the caller gets either way
		return err
	}
	for {
		body, err := c.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil // coordinator went away; the engine stays as-is
			}
			return err
		}
		switch body[0] {
		case cmdHello:
			if len(body) != 33 {
				return fail(errors.New("cluster: malformed hello"))
			}
			tab := e.Store().Table()
			if !bytes.Equal(body[1:], appendTable(nil, tab)) {
				return fail(fmt.Errorf("cluster: coordinator geometry differs from node table %v", tab))
			}
			if err := c.SendU64(cmdWelcome, e.NextTick()); err != nil {
				return err
			}
		case cmdTick:
			if len(body) < 9 {
				return fail(errors.New("cluster: malformed tick"))
			}
			tick := binary.LittleEndian.Uint64(body[1:9])
			if tick != e.NextTick() {
				return fail(fmt.Errorf("cluster: tick %d out of order (node at %d)", tick, e.NextTick()))
			}
			if updates, err = wal.DecodeUpdates(updates[:0], body[9:]); err != nil {
				return fail(err)
			}
			if err := e.ApplyTick(updates); err != nil {
				return fail(err)
			}
			if err := c.SendU64(cmdTickOK, tick); err != nil {
				return err
			}
		case cmdCheckpoint:
			if len(body) != 9 {
				return fail(errors.New("cluster: malformed checkpoint"))
			}
			info, err := e.CheckpointAsOf(binary.LittleEndian.Uint64(body[1:]))
			if err != nil {
				return fail(err)
			}
			if err := c.SendU64(cmdCheckpointOK, info.Epoch, info.AsOfTick); err != nil {
				return err
			}
		case cmdHashRange:
			if len(body) != 17 {
				return fail(errors.New("cluster: malformed hash request"))
			}
			lo := int(binary.LittleEndian.Uint64(body[1:]))
			hi := int(binary.LittleEndian.Uint64(body[9:]))
			if lo < 0 || hi > e.Store().NumObjects() || lo >= hi {
				return fail(fmt.Errorf("cluster: hash range [%d,%d) out of bounds", lo, hi))
			}
			sum := crc32.ChecksumIEEE(e.Store().SlabRange(lo, hi))
			if err := c.SendU64(cmdHashOK, uint64(sum)); err != nil {
				return err
			}
		case cmdBye:
			return nil
		default:
			return fail(fmt.Errorf("cluster: unknown command %#x", body[0]))
		}
	}
}

// appendTable appends a table geometry: the hello frame's body after the
// command byte.
func appendTable(b []byte, t gamestate.Table) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Cols))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.CellSize))
	return binary.LittleEndian.AppendUint64(b, uint64(t.ObjSize))
}

// RemoteNode is the coordinator's handle on one served node.
type RemoteNode struct {
	c *replication.Conn
}

// Attach performs the geometry handshake with a served node and returns its
// next tick (0 fresh; the recovered world tick after a crash).
func Attach(conn net.Conn, table gamestate.Table) (*RemoteNode, uint64, error) {
	n := &RemoteNode{c: replication.NewConn(conn, replication.MaxFrameSize)}
	if err := n.c.Send(appendTable(n.c.Frame(cmdHello), table)); err != nil {
		return nil, 0, err
	}
	body, err := n.read(cmdWelcome, 9)
	if err != nil {
		return nil, 0, err
	}
	return n, binary.LittleEndian.Uint64(body[1:]), nil
}

// read consumes one reply frame, surfacing node-reported errors.
func (n *RemoteNode) read(want byte, wantLen int) ([]byte, error) {
	body, err := n.c.ReadFrame()
	if err != nil {
		return nil, err
	}
	if body[0] == cmdErr {
		return nil, fmt.Errorf("cluster: node error: %s", body[1:])
	}
	if body[0] != want || len(body) != wantLen {
		return nil, fmt.Errorf("cluster: unexpected reply %#x (%d bytes), want %#x", body[0], len(body), want)
	}
	return body, nil
}

// SendTick issues one tick's batch without waiting for the ack: the
// coordinator sends to every node, then awaits every ack — the barrier.
func (n *RemoteNode) SendTick(tick uint64, batch []wal.Update) error {
	b := binary.LittleEndian.AppendUint64(n.c.Frame(cmdTick), tick)
	return n.c.Send(wal.EncodeUpdates(b, batch))
}

// AwaitTick blocks until the node acknowledges the tick as applied.
func (n *RemoteNode) AwaitTick(tick uint64) error {
	body, err := n.read(cmdTickOK, 9)
	if err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(body[1:]); got != tick {
		return fmt.Errorf("cluster: node acknowledged tick %d, want %d", got, tick)
	}
	return nil
}

// Checkpoint asks the node for an image covering cut and returns its
// identity (epoch, as-of tick) — one leg of a coordinated world checkpoint.
func (n *RemoteNode) Checkpoint(cut uint64) (epoch, asOfTick uint64, err error) {
	if err := n.c.SendU64(cmdCheckpoint, cut); err != nil {
		return 0, 0, err
	}
	body, err := n.read(cmdCheckpointOK, 17)
	if err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(body[1:]), binary.LittleEndian.Uint64(body[9:]), nil
}

// HashRange returns the node's CRC32 over objects [lo, hi): the cheap
// world-verification primitive (byte-compare lives in-process).
func (n *RemoteNode) HashRange(lo, hi int) (uint32, error) {
	if err := n.c.SendU64(cmdHashRange, uint64(lo), uint64(hi)); err != nil {
		return 0, err
	}
	body, err := n.read(cmdHashOK, 9)
	if err != nil {
		return 0, err
	}
	return uint32(binary.LittleEndian.Uint64(body[1:])), nil
}

// Bye ends the session cleanly and closes the connection.
func (n *RemoteNode) Bye() error {
	if err := n.c.Send(n.c.Frame(cmdBye)); err != nil {
		n.c.Close() //nolint:errcheck // the send error is the one to report
		return err
	}
	return n.c.Close()
}
