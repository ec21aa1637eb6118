package replication

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/gamestate"
)

// TestResilientPairSurvivesRepeatedSevers cuts the replication link over
// and over — mid-frame, via a chaos conn with a per-session byte budget —
// and proves the reconnect contract: the standby redials with backoff,
// every session after the first resumes from the durable ack watermark
// with no re-bootstrap, no tick is lost or double-applied, and the
// eventually promoted standby is byte-identical to the never-faulted
// reference.
func TestResilientPairSurvivesRepeatedSevers(t *testing.T) {
	const ticks, perTick = 200, 48
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The "network": each shipper dial builds a fresh pipe whose primary
	// side severs after a byte budget — the bootstrap session gets enough
	// for the snapshot plus a few dozen ticks, every later one much less,
	// so the stream dies mid-flight several times over the run.
	conns := make(chan net.Conn)
	quit := make(chan struct{})
	session := 0
	shipDial := func() (net.Conn, error) {
		limit := int64(2500)
		if session == 0 {
			limit += int64(tab.StateBytes())
		}
		site := fmt.Sprintf("replink#%d", session)
		session++
		sc, pc := net.Pipe()
		wrapped := chaos.WrapConn(pc, 42, site, chaos.ConnFaults{SeverAfterBytes: limit})
		select {
		case conns <- sc:
			return wrapped, nil
		case <-quit:
			return nil, errors.New("test over")
		case <-time.After(10 * time.Second):
			return nil, errors.New("standby never picked up")
		}
	}
	standbyDial := func() (net.Conn, error) {
		select {
		case c := <-conns:
			return c, nil
		case <-quit:
			return nil, errors.New("test over")
		case <-time.After(10 * time.Second):
			return nil, errors.New("shipper never dialed")
		}
	}

	fast := Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond}
	sb, err := StartResilientStandby(engine.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
	}, standbyDial, ResilientOptions{Backoff: fast})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := StartResilientShipper(p, shipDial, StreamOptions{}, ResilientOptions{Backoff: fast})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		t.Fatalf("standby died before bootstrap: %v", sb.Err())
	case <-time.After(10 * time.Second):
		t.Fatal("standby never bootstrapped")
	}

	for tick := 0; tick < ticks; tick++ {
		if err := p.ApplyTick(detBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	// Every tick must eventually be acknowledged — across however many
	// severed sessions that takes.
	if err := sh.AwaitAck(ticks-1, 120*time.Second); err != nil {
		t.Fatalf("await final ack: %v (sessions=%d, standby=%+v)", err, sh.Sessions(), sb.Stats())
	}
	if sh.Sessions() < 3 {
		t.Fatalf("only %d sessions — the chaos budget never severed the link", sh.Sessions())
	}
	stats := sb.Stats()
	if stats.Reconnects < 2 {
		t.Fatalf("standby reconnected %d times, want >= 2; stats %+v", stats.Reconnects, stats)
	}
	if stats.SnapshotBytes != int64(tab.StateBytes()) {
		t.Fatalf("snapshot shipped %d bytes, want one bootstrap of %d", stats.SnapshotBytes, tab.StateBytes())
	}

	close(quit)
	if err := sh.Stop(); err != nil {
		t.Fatalf("shipper stop: %v", err)
	}
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.NextTick() != ticks {
		t.Fatalf("promoted at tick %d, want %d (zero lost ticks)", promoted.NextTick(), ticks)
	}
	if !bytes.Equal(promoted.Store().Slab(), referenceSlab(t, tab, ticks)) {
		t.Fatal("promoted state diverges from the never-faulted reference")
	}
}

// TestResilientStandbyGivesUpAfterMaxSessions bounds the retry loop: a
// dial that always fails must surface the last error after exactly
// MaxSessions attempts instead of spinning forever.
func TestResilientStandbyGivesUpAfterMaxSessions(t *testing.T) {
	tab := gamestate.Table{Rows: 64, Cols: 8, CellSize: 4, ObjSize: 512}
	dialErr := errors.New("connection refused")
	calls := 0
	sb, err := StartResilientStandby(engine.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
	}, func() (net.Conn, error) {
		calls++
		return nil, dialErr
	}, ResilientOptions{
		Backoff:     Backoff{Base: time.Millisecond, Cap: time.Millisecond},
		MaxSessions: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never gave up")
	}
	if calls != 3 {
		t.Fatalf("dialed %d times, want 3", calls)
	}
	if err := sb.Err(); !errors.Is(err, dialErr) {
		t.Fatalf("terminal error %v does not wrap the dial failure", err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffSequence pins the capped exponential shape and the reset.
func TestBackoffSequence(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Cap: 70 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 70, 70}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("Next #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("after Reset: %v, want 10ms", got)
	}
	var zero Backoff
	if got := zero.Next(); got != 10*time.Millisecond {
		t.Fatalf("zero-value base = %v, want 10ms", got)
	}
}
