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
	const warmTicks, ticks, perTick = 10, 200, 48
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for tick := 0; tick < warmTicks; tick++ {
		if err := p.ApplyTick(detBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.CheckpointAsOf(warmTicks - 1); err != nil {
		t.Fatal(err)
	}
	img, err := p.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	bootstrap := imageWireBytes(t, p)

	// The "network": each shipper dial builds a fresh pipe whose primary
	// side severs after a byte budget — the bootstrap session gets enough
	// for the image plus a few dozen ticks, every later one much less,
	// so the stream dies mid-flight several times over the run.
	conns := make(chan net.Conn)
	quit := make(chan struct{})
	session := 0
	shipDial := func() (net.Conn, error) {
		limit := int64(2500)
		if session == 0 {
			limit += bootstrap
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

	for tick := warmTicks; tick < ticks; tick++ {
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
	if stats.StartTick != warmTicks || stats.ImageBytes != int64(len(img.Data)) {
		t.Fatalf("bootstrap from tick %d with %d image bytes, want one bootstrap from %d with %d",
			stats.StartTick, stats.ImageBytes, warmTicks, len(img.Data))
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

// TestStandbyResumesAgainstIdlePrimary severs the first session mid-stream
// and lets the standby redial only once the primary has committed its last
// tick and gone idle. The resumed session's log follower starts with no
// commit signal to come, so it must treat every tick committed before it
// began as whole: the last retained tick reaches the standby, and the
// promoted standby holds every tick.
func TestStandbyResumesAgainstIdlePrimary(t *testing.T) {
	const ticks, perTick = 60, 48
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Session 1 carries the bootstrap (the fresh primary has no image: an
	// end frame) and a few ticks, then severs; session 2 dials only after
	// the last tick has committed.
	conns := make(chan net.Conn)
	idle := make(chan struct{})
	session := 0
	bootstrap := imageWireBytes(t, p)
	shipDial := func() (net.Conn, error) {
		limit := bootstrap + 2500
		if session > 0 {
			<-idle
			limit = 0
		}
		session++
		sc, pc := net.Pipe()
		wrapped := chaos.WrapConn(pc, 7, fmt.Sprintf("idle#%d", session), chaos.ConnFaults{SeverAfterBytes: limit})
		select {
		case conns <- sc:
			return wrapped, nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("standby never picked up")
		}
	}
	standbyDial := func() (net.Conn, error) {
		select {
		case c := <-conns:
			return c, nil
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
	select { // the bootstrap precedes every tick, so they all stream
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
	if st := sh.Stats(); st.HasAcked && st.Acked >= ticks-1 {
		t.Fatalf("session 1 acked tick %d: the budget never severed it", st.Acked)
	}
	close(idle)
	if err := sh.AwaitAck(ticks-1, 30*time.Second); err != nil {
		t.Fatalf("await last tick after an idle resume: %v (sessions=%d)", err, sh.Sessions())
	}
	if sh.Sessions() < 2 {
		t.Fatalf("%d sessions: the standby never resumed", sh.Sessions())
	}
	if err := sh.Stop(); err != nil {
		t.Fatalf("shipper stop: %v", err)
	}
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.NextTick() != ticks || !bytes.Equal(promoted.Store().Slab(), referenceSlab(t, tab, ticks)) {
		t.Fatalf("promoted at tick %d, want %d and the reference slab", promoted.NextTick(), ticks)
	}
}

// TestResilientShipperStopsAtGeometryMismatch: a reconnecting shipper that
// meets a standby of another geometry learns it from the welcome and stops
// after that one session — redialling cannot change a table.
func TestResilientShipperStopsAtGeometryMismatch(t *testing.T) {
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	other := gamestate.Table{Rows: 512, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var standbys []*Standby
	dial := func() (net.Conn, error) {
		pc, sc := net.Pipe()
		sb, err := StartStandby(engine.Options{Table: other, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate}, sc)
		if err != nil {
			return nil, err
		}
		standbys = append(standbys, sb)
		return pc, nil
	}
	sh, err := StartResilientShipper(p, dial, StreamOptions{}, ResilientOptions{
		Backoff: Backoff{Base: time.Millisecond, Cap: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sh.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("shipper still redialling after %d sessions", sh.Sessions())
	}
	if n := sh.Sessions(); n != 1 || len(standbys) != 1 {
		t.Fatalf("%d sessions, %d dials, want 1", n, len(standbys))
	}
	if err := sh.Err(); !errors.Is(err, errGeometry) {
		t.Fatalf("shipper ended with %v, want a geometry mismatch", err)
	}
	if err := sh.Stop(); !errors.Is(err, errGeometry) {
		t.Fatalf("Stop returned %v, want the geometry mismatch", err)
	}
	for _, sb := range standbys {
		sb.Close()
	}
}

// TestShipperLogPinHoldsAcrossDisconnect: while no session runs, the
// primary keeps ticking and checkpoints, which prunes its log. The
// shipper's one log follower still pins the log at the standby's
// acknowledged watermark, so the resumed session finds every tick the
// standby lacks, and the promoted standby matches the reference.
func TestShipperLogPinHoldsAcrossDisconnect(t *testing.T) {
	const ticks, perTick = 120, 48
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
	p, err := engine.Open(engine.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Session 1 carries the bootstrap (an end frame: no image yet) and a
	// few ticks, then severs; session 2's dial reports that no session runs
	// and waits to be let through.
	conns := make(chan net.Conn)
	between, resume := make(chan struct{}), make(chan struct{})
	session := 0
	bootstrap := imageWireBytes(t, p)
	shipDial := func() (net.Conn, error) {
		limit := bootstrap + 2500
		if session > 0 {
			close(between)
			<-resume
			limit = 0
		}
		session++
		sc, pc := net.Pipe()
		wrapped := chaos.WrapConn(pc, 11, fmt.Sprintf("pin#%d", session), chaos.ConnFaults{SeverAfterBytes: limit})
		select {
		case conns <- sc:
			return wrapped, nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("standby never picked up")
		}
	}
	standbyDial := func() (net.Conn, error) {
		select {
		case c := <-conns:
			return c, nil
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
	tick := 0
	apply := func(n int) {
		t.Helper()
		for end := tick + n; tick < end; tick++ {
			if err := p.ApplyTick(detBatch(tab, tick, perTick)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(ticks / 2)
	select {
	case <-between:
	case <-time.After(10 * time.Second):
		t.Fatal("the byte budget never severed session 1")
	}
	acked := sh.Stats().Acked
	for i := 0; i < 3; i++ {
		apply(ticks / 6)
		if _, err := p.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Checkpoints; len(got) < 2 || got[len(got)-2].AsOfTick <= acked {
		t.Fatalf("checkpoints %+v do not pass the acked tick %d: nothing to prune", got, acked)
	}
	close(resume)
	if err := sh.AwaitAck(ticks-1, 30*time.Second); err != nil {
		t.Fatalf("await last tick after the resume: %v (sessions=%d, standby=%+v)", err, sh.Sessions(), sb.Stats())
	}
	if err := sh.Stop(); err != nil {
		t.Fatalf("shipper stop: %v", err)
	}
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.NextTick() != ticks || !bytes.Equal(promoted.Store().Slab(), referenceSlab(t, tab, ticks)) {
		t.Fatalf("promoted at tick %d, want %d and the reference slab", promoted.NextTick(), ticks)
	}
}
