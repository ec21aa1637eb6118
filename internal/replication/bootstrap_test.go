package replication

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// bootstrapPair attaches a fresh copy-on-update standby in sdir to p and
// waits for its bootstrap to land.
func bootstrapPair(t *testing.T, p *engine.Engine, tab gamestate.Table, sdir string, shards int) (*Shipper, *Standby) {
	t.Helper()
	pc, sc := net.Pipe()
	sb, err := StartStandby(engine.Options{Table: tab, Dir: sdir, Mode: engine.ModeCopyOnUpdate, Shards: shards}, sc)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := StartShipper(p, pc, StreamOptions{MaxLagTicks: 8})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		t.Fatalf("standby died during bootstrap: %v", sb.Err())
	case <-time.After(10 * time.Second):
		t.Fatalf("standby never bootstrapped; shipper %+v", sh.Stats())
	}
	return sh, sb
}

// TestBootstrapFromRestoredImage: a primary whose newest image is the one
// it restored at open — a ModeNone primary reopened over a copy-on-update
// image (the recoverytime shape), and a checkpointing primary that has not
// cut since — ships that image, and the standby, streamed the rest,
// promotes byte-identical to the never-crashed reference; at 1 and 2
// shards.
func TestBootstrapFromRestoredImage(t *testing.T) {
	const warmTicks, streamTicks = 10, 20
	tab := replTable()
	want := referenceSlab(t, tab, warmTicks+streamTicks)
	for _, mode := range []engine.Mode{engine.ModeNone, engine.ModeCopyOnUpdate} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				opts := engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Shards: shards}
				p, err := engine.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				for tick := 0; tick < warmTicks; tick++ {
					if err := p.ApplyTick(detBatch(tab, tick, 48)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := p.CheckpointAsOf(warmTicks - 1); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				opts.Mode = mode
				if p, err = engine.Open(opts); err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				if rec := p.Recovery(); !rec.Restored || rec.AsOfTick != warmTicks-1 || rec.ReplayedTicks != 0 {
					t.Fatalf("reopened primary recovered %+v, want the image as of tick %d alone", rec, warmTicks-1)
				}

				sh, sb := bootstrapPair(t, p, tab, t.TempDir(), shards)
				defer sb.Close()
				if st := sb.Stats(); st.StartTick != warmTicks || st.ImageBytes == 0 {
					t.Fatalf("standby bootstrapped %d image bytes from tick %d, want the restored image and tick %d",
						st.ImageBytes, st.StartTick, warmTicks)
				}
				for tick := warmTicks; tick < warmTicks+streamTicks; tick++ {
					if err := p.ApplyTick(detBatch(tab, tick, 48)); err != nil {
						t.Fatal(err)
					}
				}
				if err := sh.AwaitAck(warmTicks+streamTicks-1, 20*time.Second); err != nil {
					t.Fatal(err)
				}
				if err := sh.Stop(); err != nil {
					t.Fatalf("shipper stream error: %v", err)
				}
				promoted, err := sb.Promote()
				if err != nil {
					t.Fatal(err)
				}
				defer promoted.Close()
				if promoted.NextTick() != warmTicks+streamTicks || !bytes.Equal(promoted.Store().Slab(), want) {
					t.Fatalf("promoted at tick %d: not the never-crashed reference", promoted.NextTick())
				}
			})
		}
	}
}

// TestBootstrapShipsPopulatedBytes: in a sparse world the bootstrap ships
// exactly the newest image's populated bytes — fewer than the state — and
// the promoted standby still equals the primary.
func TestBootstrapShipsPopulatedBytes(t *testing.T) {
	tab := replTable()
	p, err := engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Every tick writes only the first bitmap word's objects.
	sparse := func(tick int) []wal.Update {
		batch := detBatch(tab, tick, 48)
		for i := range batch {
			batch[i].Cell %= uint32(64 * tab.CellsPerObject())
		}
		return batch
	}
	for tick := 0; tick < 5; tick++ {
		if err := p.ApplyTick(sparse(tick)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.CheckpointAsOf(4); err != nil {
		t.Fatal(err)
	}
	img, err := p.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	for w := 0; w < disk.Words(tab.NumObjects()); w++ {
		if img.Map.Has(w) {
			populated += min(64, tab.NumObjects()-64*w) * tab.ObjSize
		}
	}

	sh, sb := bootstrapPair(t, p, tab, t.TempDir(), 1)
	defer sb.Close()
	if got := sh.Stats().ImageBytes; got != int64(populated) || got >= int64(tab.StateBytes()) {
		t.Fatalf("shipped %d image bytes, want the %d populated bytes, fewer than the %d of the state",
			got, populated, tab.StateBytes())
	}
	if got := sb.Stats().ImageBytes; got != int64(populated) {
		t.Fatalf("standby received %d image bytes, want %d", got, populated)
	}
	for tick := 5; tick < 10; tick++ {
		if err := p.ApplyTick(sparse(tick)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.AwaitAck(9, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	sh.Stop() //nolint:errcheck // the deliberate crash
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.NextTick() != 10 || !bytes.Equal(promoted.Store().Slab(), p.Store().Slab()) {
		t.Fatalf("promoted at tick %d: differs from the primary", promoted.NextTick())
	}
}
