package session

import (
	"encoding/binary"
	"net"
	"runtime"
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

func TestTCPSessionRoundTrip(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	sconn, cconn := tcpPair(t)

	served := make(chan error, 1)
	go func() { served <- g.ServeConn(sconn) }()

	c, err := NewClient(cconn, g.Table(), 5, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	if c.NextTick != 0 {
		t.Fatalf("welcome next tick = %d, want 0", c.NextTick)
	}
	// Wait for the server goroutine to register the session before ticking.
	for i := 0; g.Sessions() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	in := []wal.Update{{Cell: 1, Value: 10}, {Cell: 2, Value: 20}}
	if err := c.Submit(in); err != nil {
		t.Fatal(err)
	}
	// Submit is async to Step: poll until the intents are staged.
	deadline := time.Now().Add(5 * time.Second)
	var batch []wal.Update
	for {
		if batch, err = g.Step(); err != nil {
			t.Fatal(err)
		}
		if len(batch) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("intents never arrived at the gateway")
		}
		time.Sleep(time.Millisecond)
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
	for i := 0; g.Sessions() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
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
