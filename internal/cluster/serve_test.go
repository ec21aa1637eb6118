package cluster

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"testing"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// TestServedWorld drives the TCP wire protocol (over net.Pipe) the way
// cmd/cluster does: a coordinator routes ticks to two served node engines
// with a send-all-await-all barrier, runs a coordinated checkpoint, and
// verifies the world by range hashes against a single-node reference.
func TestServedWorld(t *testing.T) {
	tab := testTable()
	m := Uniform(tab.NumObjects(), 2)
	if m.NumNodes != 2 {
		t.Fatalf("effective nodes %d, want 2", m.NumNodes)
	}
	dir := t.TempDir()
	remotes := make([]*RemoteNode, m.NumNodes)
	serveErr := make([]chan error, m.NumNodes)
	engines := make([]*engine.Engine, m.NumNodes)
	for i := 0; i < m.NumNodes; i++ {
		e, err := engine.Open(engine.Options{
			Table: tab, Dir: NodeDir(dir, i), Mode: engine.ModeCopyOnUpdate,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		cc, nc := net.Pipe()
		serveErr[i] = make(chan error, 1)
		go func(i int, nc net.Conn) { serveErr[i] <- ServeNode(nc, engines[i]) }(i, nc)
		rn, next, err := Attach(cc, tab)
		if err != nil {
			t.Fatal(err)
		}
		if next != 0 {
			t.Fatalf("fresh node %d reports tick %d", i, next)
		}
		remotes[i] = rn
	}

	const ticks, perTick = 12, 300
	perNode := make([][]wal.Update, m.NumNodes)
	cellsPerObj := uint32(tab.CellsPerObject())
	for tick := 0; tick < ticks; tick++ {
		perNode = RouteTick(m, cellsPerObj, testBatch(tab, tick, perTick), perNode)
		for i, rn := range remotes { // send to all…
			if err := rn.SendTick(uint64(tick), perNode[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, rn := range remotes { // …then await all: the barrier
			if err := rn.AwaitTick(uint64(tick)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Coordinated checkpoint at the cut = last applied tick.
	for i, rn := range remotes {
		_, asOf, err := rn.Checkpoint(ticks - 1)
		if err != nil {
			t.Fatal(err)
		}
		if asOf < ticks-1 {
			t.Fatalf("node %d image as-of %d, cut is %d", i, asOf, ticks-1)
		}
	}

	// Verify the world per owned range against the single-node reference.
	ref := referenceWorld(t, tab, ticks, perTick)
	sz := tab.ObjSize
	for i, rn := range remotes {
		for _, r := range m.NodeRanges(i) {
			got, err := rn.HashRange(r.Lo, r.Hi)
			if err != nil {
				t.Fatal(err)
			}
			if want := crc32.ChecksumIEEE(ref[r.Lo*sz : r.Hi*sz]); got != want {
				t.Fatalf("node %d range [%d,%d) hash %08x, reference %08x", i, r.Lo, r.Hi, got, want)
			}
		}
	}
	for i, rn := range remotes {
		if err := rn.Bye(); err != nil {
			t.Fatal(err)
		}
		if err := <-serveErr[i]; err != nil {
			t.Fatalf("node %d serve: %v", i, err)
		}
		if err := engines[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeNodeRejectsOutOfOrderTick: a tick gap is reported to the
// coordinator as a node error, not applied.
func TestServeNodeRejectsOutOfOrderTick(t *testing.T) {
	tab := testTable()
	e, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cc, nc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeNode(nc, e) }()
	rn, _, err := Attach(cc, tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.SendTick(5, nil); err != nil { // node expects tick 0
		t.Fatal(err)
	}
	if err := rn.AwaitTick(5); err == nil {
		t.Fatal("out-of-order tick acknowledged")
	}
	<-done
	cc.Close()
}

// FuzzServeNode opens a session with a valid hello, then sends fuzzed
// command frames — data is a sequence of u8-length-prefixed bodies — to
// ServeNode over a pipe, against a small InMemory engine. ServeNode must
// never panic; a body malformed for its command, or an unknown command,
// ends the session with a cmdErr frame and an error; a cmdHashRange outside
// the engine's objects is refused the same way; every other command is
// answered with its own reply or cmdErr. The seeds are checked in under
// testdata/fuzz: one well-formed session and one malformed body per
// command.
func FuzzServeNode(f *testing.F) {
	tab := gamestate.Table{Rows: 64, Cols: 4, CellSize: 4, ObjSize: 64}
	replies := map[byte]byte{
		cmdHello: cmdWelcome, cmdTick: cmdTickOK, cmdCheckpoint: cmdCheckpointOK, cmdHashRange: cmdHashOK,
	}
	sizes := map[byte]func(n int) bool{
		cmdHello:      func(n int) bool { return n == 33 },
		cmdTick:       func(n int) bool { return n >= 9 },
		cmdCheckpoint: func(n int) bool { return n == 9 },
		cmdHashRange:  func(n int) bool { return n == 17 },
		cmdBye:        func(int) bool { return true },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := engine.Open(engine.Options{Table: tab, InMemory: true, Mode: engine.ModeNone})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		cc, nc := net.Pipe()
		defer cc.Close()
		served := make(chan error, 1)
		go func() {
			served <- ServeNode(nc, e)
			nc.Close()
		}()
		rn, _, err := Attach(cc, tab)
		if err != nil {
			t.Fatalf("valid hello refused: %v", err)
		}
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			body := data[1 : 1+n]
			data = data[1+n:]
			if n == 0 {
				continue // the frame layer refuses empty bodies before ServeNode sees them
			}
			if err := rn.c.Send(append(rn.c.Frame(body[0]), body[1:]...)); err != nil {
				t.Fatalf("send %x: %v", body, err)
			}
			if body[0] == cmdBye {
				if err := <-served; err != nil {
					t.Fatalf("bye ended the session with %v", err)
				}
				return
			}
			reply, err := rn.c.ReadFrame()
			if err != nil {
				t.Fatalf("no reply to %x: %v", body, err)
			}
			ok, known := sizes[body[0]]
			refuse := !known || !ok(len(body))
			if body[0] == cmdHashRange && !refuse {
				lo := int(binary.LittleEndian.Uint64(body[1:]))
				hi := int(binary.LittleEndian.Uint64(body[9:]))
				refuse = lo < 0 || hi > e.Store().NumObjects() || lo >= hi
			}
			switch {
			case reply[0] == cmdErr:
				if err := <-served; err == nil {
					t.Fatalf("cmdErr for %x, but ServeNode returned nil", body)
				}
				return
			case refuse:
				t.Fatalf("body %x answered with %#x, want cmdErr", body, reply[0])
			case reply[0] != replies[body[0]]:
				t.Fatalf("body %x answered with %#x, want %#x", body, reply[0], replies[body[0]])
			}
		}
	})
}
