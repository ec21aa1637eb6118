package peerram

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// openLinkEngine opens a durable engine with one tick applied, so range
// installs are allowed, and a subscription that pins the whole log for the
// test to read back.
func openLinkEngine(t *testing.T, tab gamestate.Table) *engine.Engine {
	t.Helper()
	e, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	pin, err := e.SubscribeTicks()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pin.Close)
	if err := e.ApplyTick(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// installTick logs a range install and a batch at the same tick.
func installTick(e *engine.Engine, rng *rand.Rand) error {
	objs, objSize := e.Store().NumObjects(), e.Store().ObjSize()
	lo := rng.Intn(objs - 8)
	hi := lo + 1 + rng.Intn(8)
	data := make([]byte, (hi-lo)*objSize)
	rng.Read(data)
	if err := e.InstallRange(lo, hi, data); err != nil {
		return err
	}
	return e.ApplyTick(randomBatch(rng, uint32(e.Table().NumCells()), 30))
}

// heldTicks reads owner's delta tail out of st, by tick.
func heldTicks(t *testing.T, st *Store, owner int) map[uint64][][]byte {
	t.Helper()
	src, err := NewRestoreSource(st, owner)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	held := map[uint64][][]byte{}
	for {
		tick, payload, ok, err := recs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return held
		}
		held[tick] = append(held[tick], payload)
	}
}

// loggedTicks reads every record of a closed engine's log, by tick.
func loggedTicks(t *testing.T, dir string) map[uint64][][]byte {
	t.Helper()
	tr := wal.NewTailReader(dir, 0)
	defer tr.Close()
	logged := map[uint64][][]byte{}
	for {
		tick, payload, ok, err := tr.TryNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return logged
		}
		logged[tick] = append(logged[tick], append([]byte(nil), payload...))
	}
}

// TestStoppedLinkHoldsOnlyWholeTicks stops the link at random points while
// its owner logs ticks whose range install and batch share the tick: every
// bundle the store holds afterwards carries all of its tick's records,
// byte for byte as the owner's log has them.
func TestStoppedLinkHoldsOnlyWholeTicks(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(17))
	e := openLinkEngine(t, tab)
	mesh := NewMesh(2)

	var held []map[uint64][][]byte
	for round := 0; round < 12; round++ {
		if err := mesh.Attach(0, e); err != nil {
			t.Fatal(err)
		}
		if err := mesh.Drain(0, e.NextTick()-1, 5*time.Second); err != nil {
			t.Fatal(err) // the initial image is in: the stop lands among deltas
		}
		ticking := make(chan error, 1)
		go func(r *rand.Rand) {
			for i := 0; i < 40; i++ {
				if err := installTick(e, r); err != nil {
					ticking <- err
					return
				}
			}
			ticking <- nil
		}(rand.New(rand.NewSource(rng.Int63())))
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		mesh.Detach(0)
		if err := <-ticking; err != nil {
			t.Fatal(err)
		}
		held = append(held, heldTicks(t, mesh.stores[1], 0))
	}
	dir := e.WALDir()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	logged := loggedTicks(t, dir)
	bundles := 0
	for round, m := range held {
		for tick, recs := range m {
			want := logged[tick]
			if len(recs) != len(want) {
				t.Fatalf("round %d: tick %d held with %d records, the log has %d", round, tick, len(recs), len(want))
			}
			for i := range recs {
				if !bytes.Equal(recs[i], want[i]) {
					t.Fatalf("round %d: tick %d record %d differs from the log", round, tick, i)
				}
			}
			bundles++
		}
	}
	if bundles == 0 {
		t.Fatal("no round stored a single bundle")
	}
}

// TestDrainReturnsOnlyOnceStoreCoversTick: after Drain(owner, t) returns
// nil the holder's store covers t, across refreshes; a tick that never
// commits times out instead.
func TestDrainReturnsOnlyOnceStoreCoversTick(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(19))
	e := openLinkEngine(t, tab)
	defer e.Close()
	mesh := NewMesh(2)
	if err := mesh.Attach(0, e); err != nil {
		t.Fatal(err)
	}
	defer mesh.Detach(0)
	for i := 0; i < 40; i++ {
		if err := installTick(e, rng); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if _, err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if err := mesh.Refresh(0); err != nil {
				t.Fatal(err)
			}
		}
		tick := e.NextTick() - 1
		if err := mesh.Drain(0, tick, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		st := mesh.stores[1]
		rep, ok := st.snapshot(0)
		if !ok {
			t.Fatalf("tick %d: Drain returned before any image", tick)
		}
		if w := st.watermarkLocked(&rep); w <= tick {
			t.Fatalf("Drain(%d) returned with the store at watermark %d", tick, w)
		}
	}
	if err := mesh.Drain(0, e.NextTick(), 20*time.Millisecond); err == nil {
		t.Fatal("Drain of an uncommitted tick returned nil")
	}
}

// TestRefreshRacingInitialImageNeverRegresses issues Refreshes — from
// three goroutines at once, while the owner ticks — as soon as the link is
// attached, so they race its initial image and each other: images land in
// snapshot order, so neither a Refresh nor the link fails with
// "regresses".
func TestRefreshRacingInitialImageNeverRegresses(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(23))
	e := openLinkEngine(t, tab)
	defer e.Close()
	for round := 0; round < 10; round++ {
		mesh := NewMesh(2)
		if err := mesh.Attach(0, e); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		ticked := make(chan error, 1)
		go func(r *rand.Rand) {
			for {
				select {
				case <-stop:
					ticked <- nil
					return
				default:
				}
				if err := installTick(e, r); err != nil {
					ticked <- err
					return
				}
			}
		}(rand.New(rand.NewSource(rng.Int63())))
		refreshed := make(chan error, 3)
		for g := 0; g < 3; g++ {
			go func() {
				var err error
				for i := 0; i < 3 && err == nil; i++ {
					err = mesh.Refresh(0)
				}
				refreshed <- err
			}()
		}
		var err error
		for g := 0; g < 3; g++ {
			err = errors.Join(err, <-refreshed)
		}
		close(stop)
		err = errors.Join(err, <-ticked)
		if err == nil {
			err = mesh.Drain(0, e.NextTick()-1, 5*time.Second)
		}
		mesh.Detach(0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
