package session

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/replication"
	"repro/internal/wal"
)

// tcpPair returns a loopback server/client conn pair.
func tcpPair(t *testing.T) (server, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if err != nil || cerr != nil {
		t.Fatalf("accept: %v dial: %v", err, cerr)
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

// watchedConn counts the bytes written to a connection and, on the side
// that reads, tells when the reader has taken everything it was sent.
// ServeConn's reader loop is: read a frame, stage its intents, read again,
// so once it re-enters Read having consumed every byte the client wrote,
// every intent the client submitted is staged.
type watchedConn struct {
	net.Conn
	written atomic.Int64

	mu       sync.Mutex
	consumed int64         // bytes Read has returned
	idleAt   int64         // consumed at the latest entry into Read
	wake     chan struct{} // closed and replaced at every entry into Read
}

func watchConn(c net.Conn) *watchedConn {
	return &watchedConn{Conn: c, idleAt: -1, wake: make(chan struct{})}
}

func (c *watchedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.idleAt = c.consumed
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.consumed += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *watchedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// awaitConsumed blocks until the reader has re-entered Read with at least
// target bytes consumed; the test's deadline bounds the wait.
func (c *watchedConn) awaitConsumed(target int64) {
	for {
		c.mu.Lock()
		at, wake := c.idleAt, c.wake
		c.mu.Unlock()
		if at >= target {
			return
		}
		<-wake
	}
}

func TestTCPSessionRoundTrip(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	server, client := tcpPair(t)
	sconn, cconn := watchConn(server), watchConn(client)

	served := make(chan error, 1)
	go func() { served <- g.ServeConn(sconn) }()

	c, err := NewClient(cconn, g.Table(), 5, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	if c.NextTick != 0 {
		t.Fatalf("welcome next tick = %d, want 0", c.NextTick)
	}
	// ServeConn registers the session before it sends the welcome NewClient
	// read, so the session is already there.
	if n := g.Sessions(); n != 1 {
		t.Fatalf("%d sessions registered after the welcome, want 1", n)
	}

	in := []wal.Update{{Cell: 1, Value: 10}, {Cell: 2, Value: 20}}
	if err := c.Submit(in); err != nil {
		t.Fatal(err)
	}
	// Submit is async to Step: the intents are staged once the server's
	// reader has consumed every byte the client wrote.
	sconn.awaitConsumed(cconn.written.Load())
	batch, err := g.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0] != in[0] || batch[1] != in[1] {
		t.Fatalf("batch = %v, want %v", batch, in)
	}

	tick, updates, err := c.ReadDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 || updates[0] != in[0] || updates[1] != in[1] {
		t.Fatalf("delta tick %d = %v, want %v", tick, updates, in)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	if g.Sessions() != 0 {
		t.Fatalf("session still registered after bye")
	}
}

func TestTCPGeometryMismatchRejected(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	sconn, cconn := tcpPair(t)

	served := make(chan error, 1)
	go func() { served <- g.ServeConn(sconn) }()

	bad := g.Table()
	bad.Rows /= 2
	if _, err := NewClient(cconn, bad, 1, Range{Lo: 0, Hi: 64}); err == nil {
		t.Fatal("client accepted despite geometry mismatch")
	}
	if err := <-served; err == nil {
		t.Fatal("ServeConn accepted a mismatched geometry")
	}
	if g.Sessions() != 0 {
		t.Fatal("mismatched client left a session behind")
	}
}

func TestTCPBadMagicRejected(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	sconn, cconn := tcpPair(t)

	served := make(chan error, 1)
	go func() { served <- g.ServeConn(sconn) }()

	body := appendHello(nil, 1, Range{Lo: 0, Hi: 64}, g.Table())
	copy(body, "NOTMAGIC")
	c := replication.NewConn(cconn, maxFrame)
	if err := c.Send(append(c.Frame(frameHello), body...)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil {
		t.Fatal("ServeConn accepted a bad magic")
	}
}

// TestServeConnLengthFieldNeverSizesAllocation: eight bytes from a client
// that has not even said hello — a header claiming the largest frame the
// gateway accepts — must not make ServeConn allocate anything like that
// much, and the session ends when the client goes away.
func TestServeConnLengthFieldNeverSizesAllocation(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	sconn, cconn := net.Pipe()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	served := make(chan error, 1)
	go func() { served <- g.ServeConn(sconn) }()
	hdr := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, maxFrame), 0)
	if _, err := cconn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// One body byte: the pipe hands it over only once ServeConn has sized
	// its buffer for the claimed body and is back in Read.
	if _, err := cconn.Write([]byte{frameHello}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("8 header bytes and 1 body byte made the gateway allocate %d bytes", grew)
	}
	cconn.Close()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("ServeConn returned nil for a hello that never arrived")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn still waiting on a closed connection")
	}
}

// TestTCPDroppedDeltaLosesOneFrameOnly: a frame goes out in one Write, so a
// chaos drop on the gateway's side of a session connection loses exactly one
// delta and the client's next ReadDelta returns the following tick intact —
// not a checksum error from a header that lost its body.
func TestTCPDroppedDeltaLosesOneFrameOnly(t *testing.T) {
	const ticks, site, dropProb = 6, "session-conn", 0.2
	// Pick a schedule that keeps Write 1 (the welcome), drops exactly one of
	// the delta Writes 2..ticks+1, and not the last (so a delta follows it).
	seed, lost := int64(-1), -1
	for s := int64(0); s < 1000 && seed < 0; s++ {
		rng, drops, at := chaos.NewRand(s, site), 0, -1
		for wr := 0; wr <= ticks; wr++ {
			if rng.Float64() < dropProb {
				drops, at = drops+1, wr-1
			}
		}
		if drops == 1 && at >= 0 && at < ticks-1 {
			seed, lost = s, at
		}
	}
	if seed < 0 {
		t.Fatal("no seed drops exactly one mid-stream delta")
	}

	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	sconn, cconn := tcpPair(t)
	faulty := chaos.WrapConn(sconn, seed, site, chaos.ConnFaults{DropProb: dropProb})
	served := make(chan error, 1)
	go func() { served <- g.ServeConn(faulty) }()
	c, err := NewClient(cconn, g.Table(), 5, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Sessions(); n != 1 {
		t.Fatalf("%d sessions registered after the welcome, want 1", n)
	}
	// A second, in-process session writes one cell inside the client's
	// interest window every tick: one delta frame per tick.
	driver, err := g.Connect(6, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < ticks; tick++ {
		if err := driver.Submit([]wal.Update{{Cell: 1, Value: uint32(100 + tick)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AwaitDelivered(ticks-1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < ticks; want++ {
		if want == lost {
			continue
		}
		tick, updates, err := c.ReadDelta()
		if err != nil {
			t.Fatalf("ReadDelta after the dropped frame: %v", err)
		}
		if tick != uint64(want) || len(updates) != 1 || updates[0].Value != uint32(100+want) {
			t.Fatalf("delta = tick %d %v, want tick %d intact (tick %d was dropped)", tick, updates, want, lost)
		}
	}
	if n := faulty.Injected(); n != 1 {
		t.Fatalf("%d faults injected, want exactly the one dropped delta", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
}

// FuzzParseHello feeds an arbitrary hello body to the MMOGATE1 handshake
// every accepted client connection opens with. parseHello must never panic,
// and a body it accepts must re-encode through appendHello, for the world's
// table, to the same bytes. The seeds are checked in under testdata/fuzz:
// a valid hello, the wrong magic, another geometry, short and long bodies.
func FuzzParseHello(f *testing.F) {
	tab := testTable()
	f.Fuzz(func(t *testing.T, body []byte) {
		id, interest, err := parseHello(body, tab)
		if err != nil {
			return
		}
		if again := appendHello([]byte{frameHello}, id, interest, tab); !bytes.Equal(again, body) {
			t.Fatalf("accepted hello %x re-encodes to %x", body, again)
		}
	})
}
