package replication

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"testing"
)

// scriptConn is a net.Conn whose reads come from a byte script, at most
// chunk bytes per Read, and whose writes are recorded one entry per Write.
type scriptConn struct {
	net.Conn // nil: nothing else is called
	in       []byte
	chunk    int
	writes   [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

// rawFrame encodes one frame the way the wire has always carried it,
// independently of Conn's write half.
func rawFrame(body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	return append(b, body...)
}

// rawHeader is a frame header alone: a length field with nothing behind it.
func rawHeader(length uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, length), 0xdeadbeef)
}

// TestConnLengthFieldNeverSizesAllocation: the peer writes only a header
// claiming the largest body the reader accepts, then stalls. The read
// buffer must stay within one growth step, and the read fails when the
// connection closes.
func TestConnLengthFieldNeverSizesAllocation(t *testing.T) {
	cases := []struct {
		name string
		max  int
		read func(c *Conn) error
	}{
		{"replication hello", MaxFrameSize, func(c *Conn) error { return acceptHandshake(c, hello{objects: 1, objSize: 4, cellSize: 4}) }},
		{"session-sized bound", 64 << 20, func(c *Conn) error { _, err := c.ReadFrame(); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc, pc := net.Pipe()
			defer pc.Close()
			c := NewConn(rc, tc.max)
			done := async(func() error { return tc.read(c) })
			if _, err := pc.Write(rawHeader(uint32(tc.max))); err != nil {
				t.Fatal(err)
			}
			// One body byte: the pipe hands it over only once the reader has
			// sized its buffer and is back in Read, which orders the cap
			// check below after the allocation.
			if _, err := pc.Write([]byte{ftHello}); err != nil {
				t.Fatal(err)
			}
			stillBlocked(t, "read of a frame the peer never finishes", done)
			if got := cap(c.rbuf); got > growStep {
				t.Fatalf("8 header bytes and 1 body byte sized the read buffer to %d bytes, want <= %d", got, growStep)
			}
			pc.Close()
			if err := within(t, "read after close", done); err == nil {
				t.Fatal("read of a truncated frame returned nil")
			}
		})
	}
}

// TestConnLargeFramesRoundTripAndReuseBuffer: an image run frame and a
// multi-MB replica image cross a pipe intact, one Write each, and the buffer
// the big frame grew is the one the next frame lands in.
func TestConnLargeFramesRoundTripAndReuseBuffer(t *testing.T) {
	rc, pc := net.Pipe()
	defer rc.Close()
	defer pc.Close()
	rec := &scriptConn{}
	r, w, mirror := NewConn(rc, MaxFrameSize), NewConn(pc, MaxFrameSize), NewConn(rec, MaxFrameSize)
	bodies := [][]byte{make([]byte, 5<<20), make([]byte, imageRun), {7}}
	for _, b := range bodies {
		for i := range b {
			b[i] = byte(i * 31)
		}
	}
	sent := async(func() error {
		for _, b := range bodies {
			if err := w.Send(append(w.Frame(ftImageRun), b...)); err != nil {
				return err
			}
		}
		return nil
	})
	var grown *byte
	for i, want := range bodies {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got[0] != ftImageRun || !bytes.Equal(got[1:], want) {
			t.Fatalf("frame %d (%d bytes) arrived damaged", i, len(want))
		}
		if i == 0 {
			grown = &got[0]
		} else if &got[0] != grown {
			t.Fatalf("frame %d was read into a new buffer, want the grown one reused", i)
		}
		if err := mirror.Send(append(mirror.Frame(got[0]), got[1:]...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := within(t, "sender", sent); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != len(bodies) {
		t.Fatalf("%d frames went out in %d Writes, want one each", len(bodies), len(rec.writes))
	}
	for i, b := range bodies {
		if !bytes.Equal(rec.writes[i], rawFrame(append([]byte{ftImageRun}, b...))) {
			t.Fatalf("frame %d is not length | CRC | body on the wire", i)
		}
	}
}

// FuzzConnReadFrame feeds arbitrary bytes, in arbitrary read sizes, to the
// one reader under every stream protocol. It must never panic, never hold
// more than the bytes supplied plus one growth step (a step being what has
// arrived so far, at least growStep), and every frame it returns must
// re-encode through the write half, in one Write, to the bytes it came from.
// The seeds are checked in under testdata/fuzz: a valid hello of each
// protocol, zero, maximum and over-maximum lengths, a bad CRC, torn frames.
func FuzzConnReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		rec := &scriptConn{}
		r := NewConn(&scriptConn{in: data, chunk: int(chunk) + 1}, MaxFrameSize)
		w := NewConn(rec, MaxFrameSize)
		off := 0
		for {
			body, err := r.ReadFrame()
			if held := cap(r.rbuf); held > 2*len(data)+growStep {
				t.Fatalf("holding %d bytes after %d supplied", held, len(data))
			}
			if err != nil {
				break
			}
			if err := w.Send(append(w.Frame(body[0]), body[1:]...)); err != nil {
				t.Fatal(err)
			}
			end := off + frameHeader + len(body)
			if end > len(data) || !bytes.Equal(rec.writes[len(rec.writes)-1], data[off:end]) {
				t.Fatalf("frame at offset %d does not re-encode to its bytes", off)
			}
			off = end
		}
	})
}
