package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// testTable is a small state: 2048 cells → 16 objects of 512 bytes (8 KB).
func testTable() gamestate.Table {
	return gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 512}
}

// biggerTable is 64 KB of state for the flush-racing tests.
func biggerTable() gamestate.Table {
	return gamestate.Table{Rows: 2048, Cols: 8, CellSize: 4, ObjSize: 512}
}

func randomBatch(rng *rand.Rand, cells, n int) []wal.Update {
	batch := make([]wal.Update, n)
	for i := range batch {
		batch[i] = wal.Update{
			Cell:  uint32(rng.Intn(cells)),
			Value: rng.Uint32(),
		}
	}
	return batch
}

// reference applies batches to a plain array for comparison.
type reference struct {
	cells []uint32
}

func newReference(table gamestate.Table) *reference {
	return &reference{cells: make([]uint32, table.NumObjects()*table.CellsPerObject())}
}

func (r *reference) apply(batch []wal.Update) {
	for _, u := range batch {
		r.cells[u.Cell] = u.Value
	}
}

func (r *reference) matches(s *Store) bool {
	for i, v := range r.cells {
		if s.Cell(uint32(i)) != v {
			return false
		}
	}
	return true
}

func TestStoreBasics(t *testing.T) {
	s, err := NewStore(testTable())
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	s.SetCell(0, 0xDEADBEEF)
	s.SetCell(130, 42)
	if s.Cell(0) != 0xDEADBEEF || s.Cell(130) != 42 {
		t.Error("cell round trip failed")
	}
	if s.Cell(1) != 0 {
		t.Error("untouched cell not zero")
	}
	if got := s.ObjectOf(0); got != 0 {
		t.Errorf("ObjectOf(0) = %d", got)
	}
	if got := s.ObjectOf(128); got != 1 {
		t.Errorf("ObjectOf(128) = %d, want 1 (128 cells per 512B object)", got)
	}
	obj := s.ObjectBytes(1)
	if len(obj) != 512 {
		t.Errorf("object is %d bytes", len(obj))
	}
	if obj[2*4] != 42 { // cell 130 is cell 2 of object 1
		t.Error("ObjectBytes does not alias the slab")
	}
}

// TestCloseReleasesSlab: Close unmaps the slab once the checkpointer's
// flushers are joined and leaves Slab nil, so a stale accessor panics on an
// empty slice instead of faulting on unmapped memory.
func TestCloseReleasesSlab(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Mode: ModeCopyOnUpdate, InMemory: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint32(0); tick < 4; tick++ {
		if err := e.ApplyTick([]wal.Update{{Cell: tick, Value: tick + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if slab := e.Store().Slab(); slab != nil {
		t.Fatalf("Slab after Close is %d bytes, want nil", len(slab))
	}
	defer func() {
		if recover() == nil {
			t.Error("Cell after Close did not panic")
		}
	}()
	e.Store().Cell(0)
}

// closeCounter is a DeviceFactory that opens file devices and counts how
// many of them were opened and how many closed; after fail opens it fails.
type closeCounter struct {
	mu             sync.Mutex
	opened, closed int
	fail           int
}

func (c *closeCounter) open(path string) (disk.Device, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail > 0 && c.opened == c.fail {
		return nil, errors.New("no more devices")
	}
	f, err := disk.OpenFile(path)
	if err != nil {
		return nil, err
	}
	c.opened++
	return &countedClose{Device: f, c: c}, nil
}

type countedClose struct {
	disk.Device
	c *closeCounter
}

func (d *countedClose) Close() error {
	d.c.mu.Lock()
	d.c.closed++
	d.c.mu.Unlock()
	return d.Device.Close()
}

// TestCloseClosesBackupDevices: Close closes both backup devices Open
// opened, and an Open that fails once it has opened devices closes the ones
// it has — the log directory unusable, or the second device failing to open.
func TestCloseClosesBackupDevices(t *testing.T) {
	var c closeCounter
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeCopyOnUpdate, DeviceFactory: c.open})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyTick([]wal.Update{{Cell: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if c.closed != 0 {
		t.Fatalf("%d devices closed while the engine runs", c.closed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if c.opened != 2 || c.closed != 2 {
		t.Errorf("Close: %d devices opened, %d closed", c.opened, c.closed)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c = closeCounter{}
	if _, err := Open(Options{Table: testTable(), Dir: dir, Mode: ModeCopyOnUpdate, DeviceFactory: c.open}); err == nil {
		t.Fatal("Open over a file where the log directory goes succeeded")
	}
	if c.opened != 2 || c.closed != 2 {
		t.Errorf("failed log open: %d devices opened, %d closed", c.opened, c.closed)
	}

	c = closeCounter{fail: 1}
	if _, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeCopyOnUpdate, DeviceFactory: c.open}); err == nil {
		t.Fatal("Open without its second device succeeded")
	}
	if c.opened != 1 || c.closed != 1 {
		t.Errorf("failed device open: %d devices opened, %d closed", c.opened, c.closed)
	}
}

func TestNewStoreRejects(t *testing.T) {
	tab := testTable()
	tab.CellSize = 8
	if _, err := NewStore(tab); err == nil {
		t.Error("8-byte cells accepted")
	}
	tab = gamestate.Table{}
	if _, err := NewStore(tab); err == nil {
		t.Error("zero table accepted")
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, err := Open(Options{Table: testTable(), Mode: Mode(9), InMemory: true}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Open(Options{Table: testTable(), Mode: ModeNone}); err == nil {
		t.Error("missing Dir accepted")
	}
	bad := testTable()
	bad.Rows = 0
	if _, err := Open(Options{Table: bad, Mode: ModeNone, InMemory: true}); err == nil {
		t.Error("invalid table accepted")
	}
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		ModeNone: "none", ModeNaiveSnapshot: "naive-snapshot",
		ModeCopyOnUpdate: "copy-on-update",
		ModeAtomicCopy:   "atomic-copy-dirty-objects",
		ModeDribble:      "dribble-and-copy-on-update", Mode(9): "unknown",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestApplyTickAndReadback(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Mode: ModeNone, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := []wal.Update{{Cell: 7, Value: 77}, {Cell: 2000, Value: 99}}
	if err := e.ApplyTick(batch); err != nil {
		t.Fatal(err)
	}
	if e.Store().Cell(7) != 77 || e.Store().Cell(2000) != 99 {
		t.Error("updates not applied")
	}
	if e.NextTick() != 1 {
		t.Errorf("NextTick = %d, want 1", e.NextTick())
	}
	st := e.Stats()
	if st.Ticks != 1 || st.UpdatesApplied != 2 {
		t.Errorf("stats: %+v", st)
	}
}

// TestGracefulRecoveryEquivalence is the core durability property: apply a
// random workload, close cleanly, reopen — the recovered state must equal a
// reference replay, for every mode.
func TestGracefulRecoveryEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeNaiveSnapshot, ModeCopyOnUpdate, ModeAtomicCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			tab := testTable()
			ref := newReference(tab)
			rng := rand.New(rand.NewSource(11))

			e, err := Open(Options{Table: tab, Dir: dir, Mode: mode, SyncEveryTick: true})
			if err != nil {
				t.Fatal(err)
			}
			if e.Recovery().Restored {
				t.Error("fresh dir claims restored state")
			}
			const ticks = 120
			for i := 0; i < ticks; i++ {
				batch := randomBatch(rng, tab.NumCells(), 40)
				ref.apply(batch)
				if err := e.ApplyTick(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2, err := Open(Options{Table: tab, Dir: dir, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if !ref.matches(e2.Store()) {
				t.Fatal("recovered state differs from reference")
			}
			if e2.NextTick() != ticks {
				t.Errorf("NextTick after recovery = %d, want %d", e2.NextTick(), ticks)
			}
			rec := e2.Recovery()
			if !rec.Restored {
				t.Error("no checkpoint image was used despite many ticks")
			}
			if rec.ReplayedTicks == 0 && rec.AsOfTick < ticks-1 {
				t.Error("no log replay despite image older than the last tick")
			}
		})
	}
}

// TestAbruptCrashRecovery abandons the engine without Close (goroutines and
// buffers discarded, as in a process kill with per-tick fsync) and reopens.
func TestAbruptCrashRecovery(t *testing.T) {
	for _, mode := range []Mode{ModeNaiveSnapshot, ModeCopyOnUpdate, ModeAtomicCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			tab := testTable()
			ref := newReference(tab)
			rng := rand.New(rand.NewSource(5))

			e, err := Open(Options{Table: tab, Dir: dir, Mode: mode, SyncEveryTick: true})
			if err != nil {
				t.Fatal(err)
			}
			const ticks = 60
			for i := 0; i < ticks; i++ {
				batch := randomBatch(rng, tab.NumCells(), 25)
				ref.apply(batch)
				if err := e.ApplyTick(batch); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: quiesce the writer so the abandoned engine cannot touch
			// the files the reopened engine reads, then drop everything.
			// (A real crash kills the process; cp.close only waits for the
			// in-flight flush, it does not write anything new.)
			e.cp.close()  //nolint:errcheck
			e.log.Close() //nolint:errcheck

			e2, err := Open(Options{Table: tab, Dir: dir, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if !ref.matches(e2.Store()) {
				t.Fatal("state after abrupt crash differs from reference")
			}
		})
	}
}

// TestCheckpointImageConsistency verifies the COU guarantee that makes
// logical logging sound: the image on disk is consistent exactly as of the
// checkpoint's start tick, even though the mutator kept updating hot cells
// throughout the flush.
func TestCheckpointImageConsistency(t *testing.T) {
	dir := t.TempDir()
	tab := biggerTable()
	rng := rand.New(rand.NewSource(3))

	e, err := Open(Options{
		Table: tab, Dir: dir, Mode: ModeCopyOnUpdate,
		// Throttle so a flush spans many ticks and updates race the writer.
		DiskBytesPerSec: 2e6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the slab after every tick so we can check any AsOfTick.
	history := map[uint64][]byte{}
	const ticks = 200
	for i := 0; i < ticks; i++ {
		// Heavy traffic on a hot range plus scattered cold updates.
		batch := randomBatch(rng, 512, 60)
		batch = append(batch, randomBatch(rng, tab.NumCells(), 20)...)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		history[uint64(i)] = append([]byte(nil), e.Store().Slab()...)
		time.Sleep(500 * time.Microsecond) // tick pacing so flushes span ticks
	}
	copies := e.CheckpointStats().Copies.Load()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	infos := e.Stats().Checkpoints
	if len(infos) < 2 {
		t.Fatalf("only %d checkpoints completed", len(infos))
	}
	if copies == 0 {
		t.Error("no pre-image copies despite updates racing the flush")
	}

	// Verify the newest complete image on disk byte-for-byte against the
	// state at its AsOfTick.
	for _, name := range []string{"backup-a.img", "backup-b.img"} {
		dev, err := disk.OpenFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := disk.NewBackup(dev, tab.NumObjects(), tab.ObjSize)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.ReadHeader()
		if err != nil || !h.Complete {
			dev.Close()
			continue
		}
		want, ok := history[h.AsOfTick]
		if !ok {
			dev.Close()
			t.Fatalf("image as-of tick %d has no snapshot", h.AsOfTick)
		}
		got := make([]byte, tab.StateBytes())
		if err := b.ReadRun(0, got); err != nil {
			t.Fatal(err)
		}
		dev.Close()
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("image %s (as of tick %d) differs at byte %d (object %d)",
						name, h.AsOfTick, i, i/tab.ObjSize)
				}
			}
		}
	}
}

// TestCOUWritesOnlyDirty: after the cold-start images, steady-state COU
// checkpoints must write far fewer bytes than full images.
func TestCOUWritesOnlyDirty(t *testing.T) {
	e, err := Open(Options{Table: biggerTable(), Mode: ModeCopyOnUpdate, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	// Touch only the first 256 cells (2 objects) repeatedly.
	for i := 0; i < 200; i++ {
		if err := e.ApplyTick(randomBatch(rng, 256, 50)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil { // every tick ends with its image committed
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	infos := e.Stats().Checkpoints
	if len(infos) < 4 {
		t.Fatalf("only %d checkpoints", len(infos))
	}
	full := int64(biggerTable().StateBytes())
	// First two checkpoints are cold-start full images.
	for _, ck := range infos[:2] {
		if ck.Bytes != full {
			t.Errorf("cold-start checkpoint wrote %d bytes, want %d", ck.Bytes, full)
		}
	}
	for _, ck := range infos[2:] {
		if ck.Bytes >= full/8 {
			t.Errorf("steady-state checkpoint wrote %d bytes, want ≪ %d", ck.Bytes, full)
		}
		if ck.Objects > 2 {
			t.Errorf("steady-state checkpoint wrote %d objects, want ≤2", ck.Objects)
		}
	}
}

// TestWALPruning: the log directory must stay bounded as checkpoints retire
// old segments.
func TestWALPruning(t *testing.T) {
	dir := t.TempDir()
	tab := testTable()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(e.Stats().Checkpoints) < 5 {
		t.Fatalf("need several checkpoints, got %d", len(e.Stats().Checkpoints))
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	// Rotation per checkpoint without pruning would leave one segment per
	// checkpoint; pruning must keep only the recent few.
	if len(segs) > 4 {
		t.Errorf("%d WAL segments remain; pruning is not keeping up", len(segs))
	}
}

func TestApplyAfterCloseFails(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Mode: ModeNone, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyTick(nil); err == nil {
		t.Error("ApplyTick after Close succeeded")
	}
	if err := e.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestRecoveryOnEmptyDirIsFresh(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Table: testTable(), Dir: dir, Mode: ModeNaiveSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := e.Recovery()
	if rec.Restored || rec.NextTick != 0 || rec.ReplayedTicks != 0 {
		t.Errorf("fresh recovery: %+v", rec)
	}
	for i := 0; i < testTable().NumCells(); i += 97 {
		if e.Store().Cell(uint32(i)) != 0 {
			t.Fatal("fresh store not zeroed")
		}
	}
}

func BenchmarkApplyTickCOU(b *testing.B) {
	e, err := Open(Options{Table: biggerTable(), Mode: ModeCopyOnUpdate, InMemory: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	batch := randomBatch(rng, biggerTable().NumCells(), 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ApplyTick(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnUpdateHot(b *testing.B) {
	e, err := Open(Options{Table: biggerTable(), Mode: ModeCopyOnUpdate, InMemory: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	batch := []wal.Update{{Cell: 5, Value: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch[0].Value = uint32(i)
		if err := e.ApplyTick(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAtomicCopyImageConsistency mirrors TestCheckpointImageConsistency for
// the eager-dirty mode: the image must be consistent exactly as of the
// checkpoint's start tick even while updates continue during the flush.
func TestAtomicCopyImageConsistency(t *testing.T) {
	dir := t.TempDir()
	tab := biggerTable()
	rng := rand.New(rand.NewSource(4))
	e, err := Open(Options{
		Table: tab, Dir: dir, Mode: ModeAtomicCopy,
		DiskBytesPerSec: 2e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	history := map[uint64][]byte{}
	const ticks = 150
	for i := 0; i < ticks; i++ {
		batch := randomBatch(rng, 512, 40)
		batch = append(batch, randomBatch(rng, tab.NumCells(), 15)...)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		history[uint64(i)] = append([]byte(nil), e.Store().Slab()...)
		time.Sleep(500 * time.Microsecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(e.Stats().Checkpoints) < 2 {
		t.Fatalf("only %d checkpoints completed", len(e.Stats().Checkpoints))
	}
	for _, name := range []string{"backup-a.img", "backup-b.img"} {
		dev, err := disk.OpenFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := disk.NewBackup(dev, tab.NumObjects(), tab.ObjSize)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.ReadHeader()
		if err != nil || !h.Complete {
			dev.Close()
			continue
		}
		want, ok := history[h.AsOfTick]
		if !ok {
			dev.Close()
			t.Fatalf("image as-of tick %d has no snapshot", h.AsOfTick)
		}
		got := make([]byte, tab.StateBytes())
		if err := b.ReadRun(0, got); err != nil {
			t.Fatal(err)
		}
		dev.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("atomic-copy image %s (as of tick %d) is not tick-consistent", name, h.AsOfTick)
		}
	}
}

// TestAtomicCopyPauseBetweenNaiveAndCOU reproduces the latency contrast of
// Section 6 in real code, measured by what each method copies synchronously
// inside its pause (CPStats.PauseBytes) rather than by how long this host
// took to copy it: naive's pause is a full-state memcpy, COU's a bitmap
// snapshot orders of magnitude smaller, and the eager-dirty copy sits in
// between when only part of the state is dirty. Every bound below holds for
// any interleaving of the tick loop with the checkpoint writer.
func TestAtomicCopyPauseBetweenNaiveAndCOU(t *testing.T) {
	tab := biggerTable()
	run := func(mode Mode) (perCkpt, n int64) {
		e, err := Open(Options{Table: tab, Mode: mode, InMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 120; i++ {
			// Dirty only the first 1/8 of the state.
			if err := e.ApplyTick(randomBatch(rng, tab.NumCells()/8, 60)); err != nil {
				t.Fatal(err)
			}
		}
		// The writer may or may not have kept up with the tick loop; three
		// blocking checkpoints put one steady-state image behind the two
		// cold-start ones (one per backup family) regardless.
		for i := 0; i < 3; i++ {
			if _, err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
		st := e.CheckpointStats()
		n = st.Checkpoints.Load()
		if n < 3 {
			t.Fatalf("%v: only %d checkpoints", mode, n)
		}
		return st.PauseBytes.Load() / n, n
	}
	naive, _ := run(ModeNaiveSnapshot)
	atomic, _ := run(ModeAtomicCopy)
	cou, _ := run(ModeCopyOnUpdate)
	full := int64(tab.StateBytes())
	bitmap := int64((tab.NumObjects() + 63) / 64 * 8)
	if naive != full {
		t.Errorf("naive copies %d bytes per pause, want the full state (%d)", naive, full)
	}
	if cou != bitmap {
		t.Errorf("COU copies %d bytes per pause, want the dirty bitmap (%d)", cou, bitmap)
	}
	// Atomic-copy: at least one dirty object per pause (the tick that just
	// ran), and fewer than the full state on average once a steady-state
	// pause (≤ 1/8 of the objects) joins the two cold-start full copies.
	if !(cou < atomic && atomic < naive) {
		t.Errorf("bytes copied per pause want COU (%d) < atomic (%d) < naive (%d)", cou, atomic, naive)
	}
}

// TestAtomicCopySteadyStateWritesDirtyOnly mirrors the COU test for the
// eager mode.
func TestAtomicCopySteadyStateWritesDirtyOnly(t *testing.T) {
	e, err := Open(Options{Table: biggerTable(), Mode: ModeAtomicCopy, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if err := e.ApplyTick(randomBatch(rng, 256, 50)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil { // every tick ends with its image committed
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	infos := e.Stats().Checkpoints
	if len(infos) < 4 {
		t.Fatalf("only %d checkpoints", len(infos))
	}
	full := int64(biggerTable().StateBytes())
	for _, ck := range infos[2:] {
		if ck.Bytes >= full/8 {
			t.Errorf("steady-state atomic-copy checkpoint wrote %d bytes, want ≪ %d", ck.Bytes, full)
		}
	}
}

// TestDribbleMode: Dribble-and-Copy-on-Update writes the full state on every
// checkpoint with no eager pause, and recovers exactly like the others.
func TestDribbleMode(t *testing.T) {
	dir := t.TempDir()
	tab := testTable()
	ref := newReference(tab)
	rng := rand.New(rand.NewSource(21))
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeDribble, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		batch := randomBatch(rng, tab.NumCells(), 30)
		ref.apply(batch)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil { // every tick ends with its image committed
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	infos := e.Stats().Checkpoints
	if len(infos) < 3 {
		t.Fatalf("only %d checkpoints", len(infos))
	}
	full := int64(tab.StateBytes())
	for i, ck := range infos {
		if ck.Bytes != full || ck.Objects != tab.NumObjects() {
			t.Errorf("dribble ckpt %d wrote %d bytes / %d objects, want full state",
				i, ck.Bytes, ck.Objects)
		}
	}
	// No eager copy: each pause snapshots the dirty bitmap and nothing else.
	st := e.CheckpointStats()
	if got, want := st.PauseBytes.Load(), st.Checkpoints.Load()*int64((tab.NumObjects()+63)/64*8); got != want {
		t.Errorf("dribble pauses copied %d bytes, want %d (bitmap words only)", got, want)
	}
	e2, err := Open(Options{Table: tab, Dir: dir, Mode: ModeDribble})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !ref.matches(e2.Store()) {
		t.Fatal("dribble recovery diverged from reference")
	}
}
