package peerram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/wal"
)

func testTable(t *testing.T) gamestate.Table {
	t.Helper()
	tab := gamestate.Table{Rows: 4096, Cols: 8, CellSize: 4, ObjSize: 512}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	return tab
}

func randomBatch(rng *rand.Rand, cells uint32, n int) []wal.Update {
	batch := make([]wal.Update, n)
	for i := range batch {
		batch[i] = wal.Update{Cell: rng.Uint32() % cells, Value: rng.Uint32()}
	}
	return batch
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 37, 1 << 16} {
		raw := make([]byte, n)
		for i := range raw {
			if rng.Intn(4) == 0 {
				raw[i] = byte(rng.Intn(256))
			}
		}
		comp, err := deflate(raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := inflate(comp, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, back) {
			t.Fatalf("%d bytes: roundtrip mismatch", n)
		}
		if _, err := inflate(comp, n+1); err == nil && n >= 0 {
			t.Fatalf("%d bytes: inflate accepted wrong rawLen", n)
		}
	}
}

func TestStoreContiguity(t *testing.T) {
	st := NewStore()
	if _, err := st.PutDelta(0, 5, 1, []byte{0}); err == nil {
		t.Fatal("delta before image accepted")
	}
	w, err := st.PutImage(0, 1, 5, 10, []byte("img"))
	if err != nil || w != 5 {
		t.Fatalf("image: w=%d err=%v", w, err)
	}
	if _, err := st.PutDelta(0, 7, 1, []byte{0}); err == nil {
		t.Fatal("gapped delta accepted")
	}
	if w, err = st.PutDelta(0, 5, 1, []byte{0}); err != nil || w != 6 {
		t.Fatalf("delta 5: w=%d err=%v", w, err)
	}
	if w, err = st.PutDelta(0, 6, 1, []byte{0}); err != nil || w != 7 {
		t.Fatalf("delta 6: w=%d err=%v", w, err)
	}
	// Stale re-sends are skipped, not errors.
	if w, err = st.PutDelta(0, 4, 1, []byte{0}); err != nil || w != 7 {
		t.Fatalf("stale delta: w=%d err=%v", w, err)
	}
	// A fresh image drops superseded deltas.
	if w, err = st.PutImage(0, 2, 7, 10, []byte("img2")); err != nil || w != 7 {
		t.Fatalf("refresh: w=%d err=%v", w, err)
	}
	if got := st.CompressedBytes(); got != int64(len("img2")) {
		t.Fatalf("compressed bytes %d after refresh", got)
	}
	if _, err := st.PutImage(0, 3, 3, 10, []byte("old")); err == nil {
		t.Fatal("regressing image accepted")
	}
}

// TestPeerRestoreEquivalence is the package's end-to-end contract: a world
// restored out of a peer's RAM is byte-identical to the never-crashed
// engine, and — because of the WAL heal — so is a plain disk recovery of
// the same directory afterwards.
func TestPeerRestoreEquivalence(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()

	mesh := NewMesh(2, Options{})
	e, err := engine.Open(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2, SyncEveryTick: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Attach(0, e); err != nil {
		t.Fatal(err)
	}

	const ticks = 40
	want := make([]byte, tab.StateBytes())
	for i := 0; i < ticks; i++ {
		batch := randomBatch(rng, uint32(tab.NumCells()), 50)
		if err := e.ApplyTickParallel(batch); err != nil {
			t.Fatal(err)
		}
		if i == ticks/2 {
			if _, err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if err := mesh.Refresh(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	copy(want, e.Store().Slab())
	if err := mesh.Drain(0, ticks-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mesh.Crash(0) // the mesh's own node dies with the engine...
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// ...but node 1's store survives and serves the restore.
	src, holder, err := mesh.Source(0)
	if err != nil {
		t.Fatal(err)
	}
	if holder != 1 {
		t.Fatalf("holder %d, want 1", holder)
	}
	re, pres, err := engine.RecoverFromPeer(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if re.NextTick() != ticks {
		t.Fatalf("restored to tick %d, want %d", re.NextTick(), ticks)
	}
	if pres.Result.BackupIndex != -1 {
		t.Fatalf("peer restore read disk backup %d", pres.Result.BackupIndex)
	}
	if !bytes.Equal(re.Store().Slab(), want) {
		t.Fatal("peer-restored slab differs from the never-crashed engine")
	}
	// One more tick so the healed directory is exercised past the restore.
	batch := randomBatch(rng, uint32(tab.NumCells()), 50)
	if err := re.ApplyTickParallel(batch); err != nil {
		t.Fatal(err)
	}
	copy(want, re.Store().Slab())
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The heal contract: a later plain disk recovery of the directory sees
	// the peer-restored history, not the pre-crash one.
	de, _, err := engine.RecoverFrom(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if de.NextTick() != ticks+1 {
		t.Fatalf("disk recovery after heal at tick %d, want %d", de.NextTick(), ticks+1)
	}
	if !bytes.Equal(de.Store().Slab(), want) {
		t.Fatal("disk recovery after peer restore diverged")
	}
}

// TestRestoreFaultFallsThrough: a holder dying mid-restore surfaces
// ErrReplicaGone, and the directory remains disk-recoverable.
func TestRestoreFaultFallsThrough(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()

	mesh := NewMesh(2, Options{})
	e, err := engine.Open(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, SyncEveryTick: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Attach(0, e); err != nil {
		t.Fatal(err)
	}
	const ticks = 20
	for i := 0; i < ticks; i++ {
		if err := e.ApplyTick(randomBatch(rng, uint32(tab.NumCells()), 40)); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte(nil), e.Store().Slab()...)
	if err := mesh.Drain(0, ticks-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mesh.Crash(0)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	mesh.FailRestoreAfter(0, int64(tab.StateBytes())/2)
	src, _, err := mesh.Source(0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.RecoverFromPeer(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
	}, src)
	if err == nil {
		t.Fatal("restore survived a dead holder")
	}
	if !mesh.Injected(0) {
		t.Fatal("fault did not fire")
	}

	de, _, err := engine.RecoverFrom(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if de.NextTick() != ticks || !bytes.Equal(de.Store().Slab(), want) {
		t.Fatal("disk fallback diverged after failed peer restore")
	}
}

// TestHostileRawLenFailsLinkAtIngest sends CRC-valid image and delta frames
// whose declared raw length no DEFLATE stream of their size can produce
// through a real Holder: the link must fail typed, with the store unchanged.
func TestHostileRawLenFailsLinkAtIngest(t *testing.T) {
	comp, err := deflate(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	lies := []uint64{1 << 63, 1<<63 - 1, maxInflated(len(comp)) + 1}
	for _, delta := range []bool{false, true} {
		for _, rawLen := range lies {
			st := NewStore()
			if _, err := st.PutImage(0, 1, 5, 4096, comp); err != nil {
				t.Fatal(err)
			}
			before, _ := st.snapshot(0)
			hc, sc := net.Pipe()
			h := StartHolder(0, st, hc)
			c := replication.NewConn(sc, replication.MaxFrameSize)
			b := c.Frame(replication.FrameReplicaImage)
			if delta {
				b = binary.LittleEndian.AppendUint64(c.Frame(replication.FrameReplicaDelta), 5)
			} else {
				b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, 2), 9)
			}
			b = binary.LittleEndian.AppendUint64(b, rawLen)
			if err := c.Send(append(b, comp...)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadFrame(); err == nil {
				t.Fatalf("delta=%v rawLen=%d: holder acknowledged the frame", delta, rawLen)
			}
			<-h.done
			if err := h.Err(); !errors.Is(err, ErrRawLen) {
				t.Fatalf("delta=%v rawLen=%d: link ended with %v, want ErrRawLen", delta, rawLen, err)
			}
			h.Stop() //nolint:errcheck // already failed; joins
			after, _ := st.snapshot(0)
			if after.epoch != before.epoch || after.nextTick != before.nextTick || after.rawLen != before.rawLen ||
				len(after.deltas) != 0 || st.CompressedBytes() != int64(len(comp)) {
				t.Fatalf("delta=%v rawLen=%d: the refused frame changed the store", delta, rawLen)
			}
		}
	}
}

// TestLyingStoredRawLenIsAnErrorNotAPanic seeds a store directly with
// raw lengths the wire check would have refused: restoring from it must
// return ErrRawLen — inflate allocates nothing and never panics.
func TestLyingStoredRawLenIsAnErrorNotAPanic(t *testing.T) {
	comp, err := deflate(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, rawLen := range []int{-1, math.MinInt, math.MaxInt, int(maxInflated(len(comp))) + 1} {
		st := NewStore()
		if _, err := st.PutImage(0, 1, 5, rawLen, comp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.PutDelta(0, 5, rawLen, comp); err != nil {
			t.Fatal(err)
		}
		src, err := NewRestoreSource(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.ReadRange(0, 1, make([]byte, 512)); !errors.Is(err, ErrRawLen) {
			t.Fatalf("rawLen %d: image read returned %v, want ErrRawLen", rawLen, err)
		}
		recs, err := src.Records()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := recs.Next(); !errors.Is(err, ErrRawLen) {
			t.Fatalf("rawLen %d: delta read returned %v, want ErrRawLen", rawLen, err)
		}
	}
}
