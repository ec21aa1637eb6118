package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// replTable is 512 objects (256 KB), big enough that an 8-shard plan keeps
// 8 effective shards.
func replTable() gamestate.Table {
	return gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
}

// detBatch is the deterministic per-tick workload shared by primary and
// reference replays.
func detBatch(tab gamestate.Table, tick, n int) []wal.Update {
	rng := rand.New(rand.NewSource(int64(tick)*7919 + 1))
	batch := make([]wal.Update, n)
	for i := range batch {
		batch[i] = wal.Update{Cell: uint32(rng.Intn(tab.NumCells())), Value: rng.Uint32()}
	}
	return batch
}

// referenceSlab replays ticks [0, n) into a fresh in-memory engine and
// returns its slab: the never-crashed ground truth.
func referenceSlab(t *testing.T, tab gamestate.Table, n int) []byte {
	t.Helper()
	e, err := engine.Open(engine.Options{Table: tab, InMemory: true, Mode: engine.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for tick := 0; tick < n; tick++ {
		if err := e.ApplyTick(detBatch(tab, tick, 48)); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), e.Store().Slab()...)
}

// TestPromotionCrashEquivalence is the failover correctness contract: a
// standby attached mid-history, caught up, and promoted after the primary
// dies must be byte-identical to (a) cold crash recovery of the primary's
// directory through the parallel pipeline, (b) serial recovery, and (c) a
// never-crashed engine — at 1, 2 and 8 shards.
func TestPromotionCrashEquivalence(t *testing.T) {
	const warmTicks, streamTicks = 10, 30
	tab := replTable()
	want := referenceSlab(t, tab, warmTicks+streamTicks)

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pdir, sdir := t.TempDir(), t.TempDir()
			p, err := engine.Open(engine.Options{Table: tab, Dir: pdir, Mode: engine.ModeCopyOnUpdate, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < warmTicks; tick++ {
				if err := p.ApplyTickParallel(detBatch(tab, tick, 48)); err != nil {
					t.Fatal(err)
				}
			}

			// Attach the standby to the running primary: the bootstrap
			// snapshot covers the warm ticks, the stream the rest.
			pc, sc := net.Pipe()
			sb, err := StartStandby(engine.Options{Table: tab, Dir: sdir, Mode: engine.ModeCopyOnUpdate, Shards: shards}, sc)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := StartShipper(p, pc, StreamOptions{MaxLagTicks: 8})
			if err != nil {
				t.Fatal(err)
			}
			// Wait out the bootstrap so the stream start is deterministic
			// (the shipper snapshots asynchronously; ticking on would move
			// the snapshot point).
			select {
			case <-sb.Ready():
			case <-sb.Done():
				t.Fatalf("standby died during bootstrap: %v", sb.Err())
			}
			for tick := warmTicks; tick < warmTicks+streamTicks; tick++ {
				if err := p.ApplyTickParallel(detBatch(tab, tick, 48)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.AwaitAck(warmTicks+streamTicks-1, 20*time.Second); err != nil {
				t.Fatal(err)
			}
			st := sh.Stats()
			if st.StartTick != warmTicks {
				t.Errorf("stream started at tick %d, want %d", st.StartTick, warmTicks)
			}
			if st.SnapshotBytes != int64(tab.StateBytes()) {
				t.Errorf("snapshot %d bytes, want %d", st.SnapshotBytes, tab.StateBytes())
			}

			// The primary dies; the warm standby takes over.
			if err := sh.Stop(); err != nil {
				t.Fatalf("shipper stream error: %v", err)
			}
			promoted, err := sb.Promote()
			if err != nil {
				t.Fatal(err)
			}
			if promoted.NextTick() != warmTicks+streamTicks {
				t.Fatalf("promoted at tick %d, want %d", promoted.NextTick(), warmTicks+streamTicks)
			}
			if !bytes.Equal(promoted.Store().Slab(), want) {
				t.Fatal("promoted standby differs from never-crashed reference")
			}
			promotedSlab := append([]byte(nil), promoted.Store().Slab()...)
			if err := promoted.Close(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			// Cold recovery of the dead primary must land on the same bytes
			// (this is what the standby replaced — and what the failovertime
			// experiment measures the takeover against).
			cold, _, err := engine.RecoverFrom(engine.Options{Table: tab, Dir: pdir, Mode: engine.ModeCopyOnUpdate, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold.Store().Slab(), promotedSlab) {
				t.Fatal("cold parallel recovery differs from promoted standby")
			}
			cold.Close()
			serial, err := engine.Open(engine.Options{Table: tab, Dir: pdir, Mode: engine.ModeCopyOnUpdate})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Store().Slab(), promotedSlab) {
				t.Fatal("serial recovery differs from promoted standby")
			}
			serial.Close()

			// The promoted standby is itself durable: restarting its
			// directory recovers the same state at the same tick.
			re, err := engine.Open(engine.Options{Table: tab, Dir: sdir, Mode: engine.ModeCopyOnUpdate})
			if err != nil {
				t.Fatal(err)
			}
			if re.NextTick() != warmTicks+streamTicks || !bytes.Equal(re.Store().Slab(), promotedSlab) {
				t.Fatalf("standby restart: tick %d, state equal %v", re.NextTick(),
					bytes.Equal(re.Store().Slab(), promotedSlab))
			}
			re.Close()
		})
	}
}

// cutConn cuts the write side after a byte budget: the last write is
// delivered partially, like a process dying mid-send. Reads pass through.
type cutConn struct {
	net.Conn
	mu     sync.Mutex
	budget int64
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	b := c.budget
	if b > int64(len(p)) {
		c.budget -= int64(len(p))
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	c.budget = 0
	c.mu.Unlock()
	if b > 0 {
		c.Conn.Write(p[:b]) //nolint:errcheck // best-effort torn tail
	}
	c.Conn.Close()
	return int(b), errors.New("connection cut mid-frame")
}

// TestMidStreamCutSealsAtWholeTick: a connection dying at an arbitrary byte
// boundary mid-stream promotes to a state that equals the reference at some
// whole tick count — partial frames never reach the engine.
func TestMidStreamCutSealsAtWholeTick(t *testing.T) {
	const warmTicks, streamTicks = 4, 40
	tab := replTable()

	// Budgets: past the bootstrap (handshake + one snapshot chunk for this
	// 256 KB table + frame overhead), landing at assorted offsets in the
	// tick stream, including mid-frame.
	bootstrap := int64(33 + 25 + (17 + len(make([]byte, tab.StateBytes()))) + 9 + 64)
	for i, extra := range []int64{100, 1111, 5000, 12345} {
		t.Run(fmt.Sprintf("cut=%d", i), func(t *testing.T) {
			pdir, sdir := t.TempDir(), t.TempDir()
			p, err := engine.Open(engine.Options{Table: tab, Dir: pdir, Mode: engine.ModeCopyOnUpdate})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for tick := 0; tick < warmTicks; tick++ {
				if err := p.ApplyTick(detBatch(tab, tick, 48)); err != nil {
					t.Fatal(err)
				}
			}
			pc, sc := net.Pipe()
			cut := &cutConn{Conn: pc, budget: bootstrap + extra}
			sb, err := StartStandby(engine.Options{Table: tab, Dir: sdir, Mode: engine.ModeCopyOnUpdate}, sc)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := StartShipper(p, cut, StreamOptions{MaxLagTicks: 64})
			if err != nil {
				t.Fatal(err)
			}
			// Let the bootstrap finish inside its byte allowance, then tick:
			// the budget's remainder lands the cut inside the tick stream,
			// at an arbitrary frame offset.
			select {
			case <-sb.Ready():
			case <-sb.Done():
				t.Fatalf("standby died during bootstrap: %v", sb.Err())
			}
			for tick := warmTicks; tick < warmTicks+streamTicks; tick++ {
				if err := p.ApplyTick(detBatch(tab, tick, 48)); err != nil {
					t.Fatal(err)
				}
			}
			<-sh.Done() // the cut kills the stream
			if sh.Err() == nil {
				t.Fatal("shipper survived the cut")
			}
			promoted, err := sb.Promote()
			if err != nil {
				t.Fatal(err)
			}
			defer promoted.Close()
			sealed := promoted.NextTick()
			if sealed < warmTicks || sealed > warmTicks+streamTicks {
				t.Fatalf("sealed at tick %d, want within [%d,%d]", sealed, warmTicks, warmTicks+streamTicks)
			}
			if !bytes.Equal(promoted.Store().Slab(), referenceSlab(t, tab, int(sealed))) {
				t.Fatalf("promoted state does not equal the reference at whole tick %d", sealed)
			}
			sh.Stop() //nolint:errcheck
		})
	}
}

// TestBackpressureBoundsInFlightTicks drives the wire protocol directly: a
// standby that withholds acknowledgements must stall the shipper after
// exactly MaxLagTicks in-flight ticks; releasing acks resumes shipping.
func TestBackpressureBoundsInFlightTicks(t *testing.T) {
	const maxLag = 2
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pc, sc := net.Pipe()
	sh, err := StartShipper(p, pc, StreamOptions{MaxLagTicks: maxLag})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop() //nolint:errcheck

	// Hand-rolled standby: handshake + bootstrap, then receive ticks into
	// a channel without acking.
	local := hello{objects: uint64(tab.NumObjects()), objSize: uint32(tab.ObjSize), cellSize: 4}
	c := NewConn(sc, MaxFrameSize)
	if err := local.expect(c, ftHello); err != nil {
		t.Fatal(err)
	}
	if err := local.send(c, ftWelcome); err != nil {
		t.Fatal(err)
	}
	if err := c.SendU64(ftResume, 0); err != nil {
		t.Fatal(err)
	}
	for {
		body, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if body[0] == ftSnapEnd {
			break
		}
	}
	got := make(chan uint64, 64)
	go func() {
		for {
			b, err := c.ReadFrame()
			if err != nil {
				close(got)
				return
			}
			if b[0] == ftTick {
				got <- binary.LittleEndian.Uint64(b[1:])
			}
		}
	}()

	for tick := 0; tick < 10; tick++ {
		if err := p.ApplyTick(detBatch(tab, tick, 4)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(deadline time.Duration) (uint64, bool) {
		select {
		case tk, ok := <-got:
			if !ok {
				t.Fatal("stream died")
			}
			return tk, true
		case <-time.After(deadline):
			return 0, false
		}
	}
	// Exactly maxLag ticks arrive unacked; the next is withheld.
	for want := uint64(0); want < maxLag; want++ {
		tk, ok := recv(5 * time.Second)
		if !ok || tk != want {
			t.Fatalf("tick %d: got %d (ok=%v)", want, tk, ok)
		}
	}
	if tk, ok := recv(100 * time.Millisecond); ok {
		t.Fatalf("shipper exceeded lag budget: shipped tick %d unacked", tk)
	}
	// Acking frees one slot at a time.
	for acked := uint64(0); acked < 8; acked++ {
		if err := c.SendU64(ftAck, acked); err != nil {
			t.Fatal(err)
		}
		want := acked + maxLag
		if want >= 10 {
			break
		}
		tk, ok := recv(5 * time.Second)
		if !ok || tk != want {
			t.Fatalf("after ack %d: got tick %d (ok=%v), want %d", acked, tk, ok, want)
		}
	}
}

// TestActionReplication: ApplyActionTick records replicate and re-execute
// through the standby's ReplayAction, including across promotion.
func TestActionReplication(t *testing.T) {
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	// The action payload is a (cell, delta) pair: a read-modify-write that
	// only determinism makes replicable.
	replay := func(tick uint64, payload []byte, w *engine.TickWriter) error {
		cell := binary.LittleEndian.Uint32(payload)
		delta := binary.LittleEndian.Uint32(payload[4:])
		if w.Owns(cell) {
			w.Set(cell, w.Cell(cell)+delta)
		}
		return nil
	}
	p, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, ReplayAction: replay})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pc, sc := net.Pipe()
	sb, err := StartStandby(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, ReplayAction: replay}, sc)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := StartShipper(p, pc, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 20
	payload := make([]byte, 8)
	for tick := 0; tick < ticks; tick++ {
		binary.LittleEndian.PutUint32(payload, uint32(tick%tab.NumCells()))
		binary.LittleEndian.PutUint32(payload[4:], uint32(tick+1))
		pl := append([]byte(nil), payload...)
		err := p.ApplyActionTick(pl, func(w *engine.TickWriter) error {
			return replay(uint64(tick), pl, w)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.AwaitAck(ticks-1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sh.Stop(); err != nil {
		t.Fatal(err)
	}
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if !bytes.Equal(promoted.Store().Slab(), p.Store().Slab()) {
		t.Fatal("replicated action state differs from primary")
	}
}

// TestHandshakeRejectsGeometryMismatch: differing tables must fail the
// session before any data moves, on both ends.
func TestHandshakeRejectsGeometryMismatch(t *testing.T) {
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	other := gamestate.Table{Rows: 512, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pc, sc := net.Pipe()
	sb, err := StartStandby(engine.Options{Table: other, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate}, sc)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := StartShipper(p, pc, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-sh.Done()
	<-sb.Done()
	if sb.Err() == nil {
		t.Fatal("standby accepted a mismatched geometry")
	}
	if _, err := sb.Promote(); err == nil {
		t.Fatal("never-bootstrapped standby promoted")
	}
	sb.Close()
	sh.Stop() //nolint:errcheck
}
