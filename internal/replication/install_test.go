package replication

import (
	"bytes"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// TestShipperReshipsBoundaryInstall: a range install is logged at the
// primary's next tick without advancing it, so one made right after the
// image's tick straddles the bootstrap boundary: the image lacks the
// installed bytes, and the stream from the image's tick on carries the
// install ahead of that tick's own record. The standby must apply both,
// ending byte-identical to the primary.
func TestShipperReshipsBoundaryInstall(t *testing.T) {
	tab := gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
	rng := rand.New(rand.NewSource(21))
	dirP := filepath.Join(t.TempDir(), "p")
	dirS := filepath.Join(t.TempDir(), "s")
	p, err := engine.Open(engine.Options{Table: tab, Dir: dirP, Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	batch := func() []wal.Update {
		b := make([]wal.Update, 60)
		for i := range b {
			b[i] = wal.Update{Cell: uint32(rng.Intn(tab.NumCells())), Value: rng.Uint32()}
		}
		return b
	}
	for i := 0; i < 6; i++ {
		if err := p.ApplyTick(batch()); err != nil {
			t.Fatal(err)
		}
	}
	// The boundary install: logged at tick 6, right past the image as of
	// tick 5 the shipper is about to read.
	if _, err := p.CheckpointAsOf(5); err != nil {
		t.Fatal(err)
	}
	_, data, err := p.SnapshotRange(64, 192)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InstallRange(64, 192, data); err != nil {
		t.Fatal(err)
	}

	pc, sc := net.Pipe()
	sb, err := StartStandby(engine.Options{Table: tab, Dir: dirS, Mode: engine.ModeCopyOnUpdate}, sc)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := StartShipper(p, pc, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		t.Fatalf("standby died during bootstrap: %v", sb.Err())
	}
	for i := 0; i < 4; i++ {
		if err := p.ApplyTick(batch()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.AwaitAck(p.NextTick()-1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	sh.Stop() //nolint:errcheck // the deliberate crash
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if !bytes.Equal(promoted.Store().Slab(), p.Store().Slab()) {
		t.Fatal("standby diverges from primary across a boundary install")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
