package session

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

func testTable() gamestate.Table {
	return gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
}

// memWorld opens an in-memory ModeNone engine world: the lightest world a
// gateway can front.
func memWorld(t *testing.T) (World, *engine.Engine) {
	t.Helper()
	e, err := engine.Open(engine.Options{Table: testTable(), Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return EngineWorld{E: e}, e
}

func newTestGateway(t *testing.T, opts Options) *Gateway {
	t.Helper()
	g, err := NewGateway(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestConnectRules(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	objs := g.Table().NumObjects()

	s, err := g.Connect(7, Range{Lo: 0, Hi: objs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(7, Range{Lo: 0, Hi: objs}); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	if _, err := g.Connect(8, Range{Lo: 10, Hi: 10}); err == nil {
		t.Fatal("empty interest window accepted")
	}
	if _, err := g.Connect(8, Range{Lo: 0, Hi: objs + 1}); err == nil {
		t.Fatal("out-of-world interest window accepted")
	}
	s.Close()
	if _, err := g.Connect(7, Range{Lo: 0, Hi: objs}); err != nil {
		t.Fatalf("reconnect after close: %v", err)
	}
	if got := g.Sessions(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
}

func TestCanonicalOrderAndInterestFiltering(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	table := g.Table()
	cellsPerObj := uint32(table.CellsPerObject())

	// Two sessions with disjoint single-slot windows; connect out of ID
	// order to exercise the sorted insert.
	lo, err := g.Connect(2, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := g.Connect(1, Range{Lo: 64, Hi: 128})
	if err != nil {
		t.Fatal(err)
	}

	// Session 2 writes into session 1's window and vice versa: each should
	// see only the updates landing in its own window, regardless of author.
	uLow := wal.Update{Cell: 3 * cellsPerObj, Value: 11}   // object 3, slot 0
	uHigh := wal.Update{Cell: 70 * cellsPerObj, Value: 22} // object 70, slot 1
	if err := lo.Submit([]wal.Update{uHigh}); err != nil {
		t.Fatal(err)
	}
	if err := hi.Submit([]wal.Update{uLow}); err != nil {
		t.Fatal(err)
	}

	batch, err := g.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order: session 1's intents before session 2's.
	want := []wal.Update{uLow, uHigh}
	if len(batch) != 2 || batch[0] != want[0] || batch[1] != want[1] {
		t.Fatalf("canonical batch = %v, want %v", batch, want)
	}
	if err := g.AwaitDelivered(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	d := <-lo.Deltas()
	if d.Tick != 0 || len(d.Updates) != 1 || d.Updates[0] != uLow {
		t.Fatalf("low-window delta = %+v, want tick 0 %v", d, uLow)
	}
	d = <-hi.Deltas()
	if d.Tick != 0 || len(d.Updates) != 1 || d.Updates[0] != uHigh {
		t.Fatalf("high-window delta = %+v, want tick 0 %v", d, uHigh)
	}
	if st := g.Stats(); st.Ticks != 1 || st.Intents != 2 || st.Deltas != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSlowConsumerDropsOldestNotNewest(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w, DeltaBuffer: 1})
	s, err := g.Connect(1, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 3; tick++ {
		if err := s.Submit([]wal.Update{{Cell: 0, Value: uint32(tick) + 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		if err := g.AwaitDelivered(tick, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 1, three ticks, nothing drained: two drops, newest survives.
	if got := s.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	// Every eviction is in the gateway's totals too: all three deltas were
	// enqueued, two of them were later evicted.
	if st := g.Stats(); st.Dropped != s.Dropped() || st.Deltas != 3 {
		t.Fatalf("gateway stats %+v, want 3 deltas and the session's %d drops", st, s.Dropped())
	}
	d := <-s.Deltas()
	if d.Tick != 2 || d.Updates[0].Value != 3 {
		t.Fatalf("surviving delta = %+v, want tick 2 value 3", d)
	}
}

func TestSubmitBounds(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w, MaxStaged: 2})
	s, err := g.Connect(1, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit([]wal.Update{{Cell: uint32(g.Table().NumCells()), Value: 1}}); err == nil {
		t.Fatal("out-of-world cell accepted")
	}
	if err := s.Submit([]wal.Update{{Cell: 0, Value: 1}, {Cell: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit([]wal.Update{{Cell: 2, Value: 3}}); err == nil {
		t.Fatal("staging past MaxStaged accepted")
	}
	s.Close()
	if err := s.Submit([]wal.Update{{Cell: 0, Value: 1}}); err == nil {
		t.Fatal("submit on closed session accepted")
	}
}

// TestSessionCrashEquivalence is the acceptance property: a session-driven
// world — intents decomposed over clients, batched by the gateway, crashed
// mid-run, recovered — ends byte-identical to a trace-driven serial
// reference engine fed the same scenario.
func TestSessionCrashEquivalence(t *testing.T) {
	table := testTable()
	src, err := workload.New("hotspot", workload.Config{
		Table: table, UpdatesPerTick: 400, Ticks: 12, Skew: 0.8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e, err := engine.Open(engine.Options{Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(Options{World: EngineWorld{E: e}})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(DriverConfig{Gateway: g, Clients: 32, Source: src, Profile: Steady, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rep, err := drv.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if rep.DroppedIntents != 0 {
			t.Fatalf("steady profile dropped %d intents", rep.DroppedIntents)
		}
	}
	g.Close()
	if err := e.Close(); err != nil { // the crash: no final checkpoint
		t.Fatal(err)
	}

	re, res, err := engine.RecoverFrom(engine.Options{Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NextTick() != 8 {
		t.Fatalf("recovered to tick %d, want 8", re.NextTick())
	}
	_ = res

	// Trace-driven serial reference over the same 8 ticks.
	ref, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var cells []uint32
	var batch []wal.Update
	for tick := 0; tick < 8; tick++ {
		cells, batch = workload.TickUpdates(src, tick, cells, batch)
		if err := ref.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(re.Store().Slab(), ref.Store().Slab()) {
		t.Fatal("recovered session-driven world differs from trace-driven reference")
	}
}
