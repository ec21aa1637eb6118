package session

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// referenceFanOut is the fan-out this package shipped before the tick was
// bucketed by slot, kept as the oracle the differential test compares
// against: walk the batch in canonical order and append every update to each
// session whose window covers its slot. It returns the updates of every
// touched session, keyed by session ID, in canonical batch order.
func referenceFanOut(batch []wal.Update, cellsPerObj uint32, windows map[uint64]Range) map[uint64][]wal.Update {
	bySlot := map[int][]uint64{}
	for id, r := range windows {
		lo, hi := slotRange(r)
		for slot := lo; slot < hi; slot++ {
			bySlot[slot] = append(bySlot[slot], id)
		}
	}
	out := map[uint64][]wal.Update{}
	for _, u := range batch {
		slot := int(u.Cell/cellsPerObj) >> cluster.SlotShift
		for _, id := range bySlot[slot] {
			out[id] = append(out[id], u)
		}
	}
	return out
}

// perCell splits updates into each cell's value sequence. Two deltas with
// equal perCell maps hold the same multiset of updates and the same per-cell
// (hence per-object) order — everything the Delta contract promises.
func perCell(updates []wal.Update) map[uint32][]uint32 {
	m := map[uint32][]uint32{}
	for _, u := range updates {
		m[u.Cell] = append(m[u.Cell], u.Value)
	}
	return m
}

// fanOutTable is 1,563 objects: 25 interest slots, the last one partial (27
// objects), so windows can end inside it.
func fanOutTable() gamestate.Table {
	return gamestate.Table{Rows: 20_000, Cols: 10, CellSize: 4, ObjSize: 512}
}

// TestFanOutMatchesPerUpdateReference is the differential test: over seeded
// random batches and interest sets the bucketed fan-out must deliver, per
// session, the same ticks as the per-update reference, each delta with the
// same multiset of updates and the same per-cell subsequence, and count the
// same Stats.Deltas. It also pins what the new contract adds: slot-major
// order and capacity-capped views.
func TestFanOutMatchesPerUpdateReference(t *testing.T) {
	tab := fanOutTable()
	worlds := map[string]func(t *testing.T) (w World, settle func()){
		"engine": func(t *testing.T) (World, func()) {
			e, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			return EngineWorld{E: e}, func() {}
		},
		// MaxSkew = 2: Tick returns before the tick commits, so one commit
		// signal often finds several pending ticks to fan out.
		"cluster-maxskew2": func(t *testing.T) (World, func()) {
			c, err := cluster.New(cluster.Options{
				Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2, MaxSkew: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return ClusterWorld{C: c}, func() {
				if err := c.Join(); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, open := range worlds {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				w, settle := open(t)
				differentialRun(t, w, settle, seed)
			}
		})
	}
}

func differentialRun(t *testing.T, w World, settle func(), seed int64) {
	t.Helper()
	const ticks, quietSlot = 14, 5
	rng := rand.New(rand.NewSource(seed))
	g := newTestGateway(t, Options{World: w})
	tab := g.Table()
	objs, cellsPerObj := tab.NumObjects(), uint32(tab.CellsPerObject())
	slotOf := func(cell uint32) int { return int(cell/cellsPerObj) >> cluster.SlotShift }

	windows := map[uint64]Range{
		1: {Lo: 0, Hi: objs},                             // whole world
		2: {Lo: 64, Hi: 128},                             // exactly one slot
		3: {Lo: 70, Hi: 200},                             // unaligned to 64 at both ends
		4: {Lo: objs - 10, Hi: objs},                     // inside the last, partial slot
		5: {Lo: 100, Hi: 300},                            // overlaps 3 and 6
		6: {Lo: 250, Hi: 500},                            //
		7: {Lo: quietSlot*64 + 3, Hi: quietSlot*64 + 40}, // no update ever lands here
		8: {Lo: 640, Hi: objs - 5},                       // ends in the last partial slot
	}
	for id := uint64(9); id < 20; id++ {
		lo := rng.Intn(objs - 1)
		windows[id] = Range{Lo: lo, Hi: lo + 1 + rng.Intn(objs-lo-1)}
	}
	sessions := map[uint64]*Session{}
	for id, r := range windows {
		s, err := g.Connect(id, r)
		if err != nil {
			t.Fatal(err)
		}
		sessions[id] = s
	}

	type delta struct {
		tick    uint64
		updates []wal.Update
	}
	want := map[uint64][]delta{}
	var wantDeltas uint64
	first := w.NextTick()
	awaitAll := func(tick uint64) {
		t.Helper()
		settle()
		if err := g.AwaitDelivered(tick, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ticks; i++ {
		tick := first + uint64(i)
		if i == ticks/2 {
			// A session closes between ticks: everything it was owed is in
			// its queue, nothing after this tick may reach it.
			awaitAll(tick - 1)
			closing := uint64(9 + rng.Intn(11))
			sessions[closing].Close()
			delete(windows, closing)
		}
		n := []int{0, 1, 40, 600}[rng.Intn(4)] // an empty batch now and then
		hot := uint32(rng.Intn(objs)) * cellsPerObj
		authors := make([]uint64, 0, len(windows))
		for id := range windows {
			authors = append(authors, id)
		}
		slices.Sort(authors) // the run is a function of the seed alone
		for k := 0; k < n; k++ {
			cell := uint32(rng.Intn(tab.NumCells()))
			if k%3 == 0 {
				cell = hot + uint32(rng.Intn(4)) // repeated cells: per-cell order matters
			}
			if slotOf(cell) == quietSlot {
				continue
			}
			u := wal.Update{Cell: cell, Value: rng.Uint32()}
			// One author per object, as the determinism contract assumes.
			author := authors[int(cell/cellsPerObj)%len(authors)]
			if err := sessions[author].Submit([]wal.Update{u}); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := g.Step()
		if err != nil {
			t.Fatal(err)
		}
		for id, updates := range referenceFanOut(batch, cellsPerObj, windows) {
			want[id] = append(want[id], delta{tick, updates})
			wantDeltas++
		}
	}
	awaitAll(first + ticks - 1)

	for id, s := range sessions {
		for _, exp := range want[id] {
			var d Delta
			select {
			case d = <-s.Deltas():
			default:
				t.Fatalf("seed %d session %d: tick %d never delivered", seed, id, exp.tick)
			}
			if d.Tick != exp.tick {
				t.Fatalf("seed %d session %d: got tick %d, reference tick %d", seed, id, d.Tick, exp.tick)
			}
			if !reflect.DeepEqual(perCell(d.Updates), perCell(exp.updates)) {
				t.Fatalf("seed %d session %d tick %d: delta differs from the reference\n got %v\nwant %v",
					seed, id, d.Tick, d.Updates, exp.updates)
			}
			if cap(d.Updates) != len(d.Updates) {
				t.Fatalf("seed %d session %d tick %d: cap %d over len %d exposes a neighbour's updates to append",
					seed, id, d.Tick, cap(d.Updates), len(d.Updates))
			}
			for k := 1; k < len(d.Updates); k++ {
				if slotOf(d.Updates[k].Cell) < slotOf(d.Updates[k-1].Cell) {
					t.Fatalf("seed %d session %d tick %d: update %d breaks slot-major order", seed, id, d.Tick, k)
				}
			}
		}
		select {
		case d := <-s.Deltas():
			t.Fatalf("seed %d session %d: tick %d delivered but absent from the reference", seed, id, d.Tick)
		default:
		}
	}
	if got := g.Stats(); got.Deltas != wantDeltas || got.Dropped != 0 {
		t.Fatalf("seed %d: stats %+v, reference delivers %d deltas", seed, got, wantDeltas)
	}
}

// TestDeltaViewsSurviveANeighboursAppend: session 1's view is a prefix of
// session 2's in the shared bucketed array, so an uncapped slice would let
// 1's append overwrite what 2 reads.
func TestDeltaViewsSurviveANeighboursAppend(t *testing.T) {
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	cpo := uint32(g.Table().CellsPerObject())
	a, err := g.Connect(1, Range{Lo: 0, Hi: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Connect(2, Range{Lo: 0, Hi: 128})
	if err != nil {
		t.Fatal(err)
	}
	intents := []wal.Update{{Cell: 70 * cpo, Value: 1}, {Cell: 3 * cpo, Value: 2}, {Cell: 90 * cpo, Value: 3}}
	if err := a.Submit(intents); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Step(); err != nil {
		t.Fatal(err)
	}
	if err := g.AwaitDelivered(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	da, db := <-a.Deltas(), <-b.Deltas()
	want := []wal.Update{intents[1], intents[0], intents[2]} // slot-major
	if !reflect.DeepEqual(da.Updates, want[:1]) || !reflect.DeepEqual(db.Updates, want) {
		t.Fatalf("deltas %v / %v, want %v / %v", da.Updates, db.Updates, want[:1], want)
	}
	if cap(da.Updates) != len(da.Updates) || cap(db.Updates) != len(db.Updates) {
		t.Fatalf("caps %d,%d over lens %d,%d", cap(da.Updates), cap(db.Updates), len(da.Updates), len(db.Updates))
	}
	_ = append(da.Updates, wal.Update{Cell: ^uint32(0), Value: ^uint32(0)})
	if !reflect.DeepEqual(db.Updates, want) {
		t.Fatalf("a neighbour's append rewrote the view: %v, want %v", db.Updates, want)
	}
}

// TestConsumersReadWhileNextTickFansOut is the -race guard on the shared
// views: every consumer reads every element of its deltas while the pump is
// already bucketing and delivering later ticks.
func TestConsumersReadWhileNextTickFansOut(t *testing.T) {
	const ticks, consumers = 60, 8
	w, _ := memWorld(t)
	g := newTestGateway(t, Options{World: w})
	tab := g.Table()
	cpo := uint32(tab.CellsPerObject())
	sessions := make([]*Session, consumers)
	windows := map[uint64]Range{}
	for i := range sessions {
		// Staggered overlapping windows: neighbours share most of their view.
		r := Range{Lo: i * 32, Hi: i*32 + 256}
		s, err := g.Connect(uint64(i), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i], windows[uint64(i)] = s, r
	}
	got := make([]uint64, consumers)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case d := <-s.Deltas():
					for _, u := range d.Updates {
						got[i] += uint64(u.Value)
					}
					if d.Tick == ticks-1 {
						return
					}
				case <-s.Gone():
					return
				}
			}
		}()
	}
	want := make([]uint64, consumers)
	rng := rand.New(rand.NewSource(1))
	for tick := 0; tick < ticks; tick++ {
		intents := make([]wal.Update, 200)
		for k := range intents {
			intents[k] = wal.Update{Cell: uint32(rng.Intn(480)) * cpo, Value: rng.Uint32()}
		}
		for i := range sessions { // every tick reaches every consumer, so each sees the last one
			intents[i].Cell = uint32(i*32) * cpo
		}
		if err := sessions[0].Submit(intents); err != nil {
			t.Fatal(err)
		}
		batch, err := g.Step()
		if err != nil {
			t.Fatal(err)
		}
		for id, updates := range referenceFanOut(batch, cpo, windows) {
			for _, u := range updates {
				want[id] += uint64(u.Value)
			}
		}
	}
	if err := g.AwaitDelivered(ticks-1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("consumers summed %v, reference %v", got, want)
	}
}

// benchTable is the repo benchmark's quick table: 7,813 objects, 123 slots.
func benchTable() gamestate.Table {
	return gamestate.Table{Rows: 100_000, Cols: 10, CellSize: 4, ObjSize: 512}
}

// fanOutFixture builds the repo benchmark's gateway shape — clients owning
// equal object spans, each window its span widened by one slot a side — and
// one 6,400-update hotspot (skew 0.8) tick to fan out.
func fanOutFixture(tb testing.TB, clients int) (*Gateway, []*Session, []wal.Update) {
	tb.Helper()
	tab := benchTable()
	e, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	g, err := NewGateway(Options{World: EngineWorld{E: e}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { g.Close() })
	objs := tab.NumObjects()
	sessions := make([]*Session, clients)
	for i := range sessions {
		r := Range{Lo: max(0, i*objs/clients-cluster.SlotSize), Hi: min(objs, (i+1)*objs/clients+cluster.SlotSize)}
		if sessions[i], err = g.Connect(uint64(i), r); err != nil {
			tb.Fatal(err)
		}
	}
	src, err := workload.New("hotspot", workload.Config{Table: tab, UpdatesPerTick: 6400, Ticks: 1, Skew: 0.8, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	_, batch := workload.TickUpdates(src, 0, nil, nil)
	return g, sessions, batch
}

// fanOutOnce fans one tick out on the caller's goroutine (the fixture's pump
// is idle: nothing Steps) and drains every queue, as the benchmark's
// collect does each tick.
func fanOutOnce(g *Gateway, sessions []*Session, tick uint64, batch []wal.Update) (deltas int) {
	g.fanOut(pendingTick{tick: tick, batch: batch})
	for _, s := range sessions {
		select {
		case <-s.Deltas():
			deltas++
		default:
		}
	}
	return deltas
}

// TestFanOutAllocations counts, not times: one fan-out allocates the
// bucketed array and the watermark broadcast channel, whatever the number of
// sessions it reaches.
func TestFanOutAllocations(t *testing.T) {
	for _, clients := range []int{2, 512} {
		g, sessions, batch := fanOutFixture(t, clients)
		tick := uint64(0)
		fanOutOnce(g, sessions, tick, batch) // size the reused scratch
		allocs := testing.AllocsPerRun(20, func() {
			tick++
			if got := fanOutOnce(g, sessions, tick, batch); got != clients {
				t.Fatalf("%d sessions: %d deltas in one fan-out", clients, got)
			}
		})
		if allocs > 4 {
			t.Fatalf("%d sessions: %.0f allocations per fan-out, want at most 4", clients, allocs)
		}
	}
}

// BenchmarkFanOut is the gateway fan-out layer alone at the repo
// benchmark's two shapes: 512 thin sessions (durable-cluster) and 2 fat ones
// (tcp-engine). DESIGN.md records its numbers at the parent and at the
// bucketed fan-out.
func BenchmarkFanOut(b *testing.B) {
	for _, bc := range []struct {
		name    string
		clients int
	}{{"sessions=512", 512}, {"sessions=2", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			g, sessions, batch := fanOutFixture(b, bc.clients)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := fanOutOnce(g, sessions, uint64(i), batch); got != bc.clients {
					b.Fatalf("%d deltas in one fan-out", got)
				}
			}
		})
	}
}
