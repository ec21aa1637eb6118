package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
)

// crashRun drives a Fault-device engine until the injected fault kills the
// checkpoint writer (or maxTicks elapse), then abandons it crash-style. It
// returns the reference state and the number of durably applied ticks.
func crashRun(t *testing.T, dir string, budget int64, seed int64) (*reference, int) {
	t.Helper()
	tab := shardTable()
	ref := newReference(tab)
	rng := rand.New(rand.NewSource(seed))

	e, err := Open(Options{
		Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true, Shards: 4,
		DeviceFactory: func(path string) (disk.Device, error) {
			d, err := disk.OpenFile(path)
			if err != nil {
				return nil, err
			}
			return disk.NewFault(d, budget), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const maxTicks = 120
	applied := 0
	for i := 0; i < maxTicks; i++ {
		batch := randomBatch(rng, tab.NumCells(), 60)
		if err := e.ApplyTickParallel(batch); err != nil {
			break // checkpoint writer died on the injected fault
		}
		ref.apply(batch)
		applied++
	}
	// Crash: quiesce the writer goroutine so the abandoned engine cannot
	// touch the files the recovering engines read, then drop everything.
	e.cp.close()  //nolint:errcheck
	e.log.Close() //nolint:errcheck
	return ref, applied
}

// TestCrashRecoveryEquivalence is the sharded-recovery correctness
// contract: after a crash at an arbitrary point mid-flush, RecoverParallel
// through 1, 2 and 8 shards must produce state byte-identical to the serial
// recovery path and to an engine that never crashed.
func TestCrashRecoveryEquivalence(t *testing.T) {
	tab := shardTable()
	imageBytes := int64(tab.StateBytes()) + 2*disk.HeaderSize
	rng := rand.New(rand.NewSource(41))
	// Budgets land the fault before, inside, and after the first full image
	// flush; one run survives to maxTicks without a fault.
	budgets := []int64{
		1 + rng.Int63n(imageBytes),          // mid first flush
		imageBytes + rng.Int63n(imageBytes), // mid a later flush
		1 << 40,                             // never trips: clean-ish crash
	}
	for bi, budget := range budgets {
		dir := t.TempDir()
		ref, applied := crashRun(t, dir, budget, int64(50+bi))
		if applied == 0 {
			t.Fatalf("budget %d: no ticks applied", budget)
		}

		checkRecoveryEquivalence(t, fmt.Sprintf("budget %d", budget), dir, ref, applied)

		// A recovered engine must resume ticking (checkpoints from here on
		// rewrite the directory, so this runs after all comparisons).
		e, _, err := RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 2})
		if err != nil {
			t.Fatalf("budget %d: RecoverFrom for resume: %v", budget, err)
		}
		if err := e.ApplyTickParallel(randomBatch(rand.New(rand.NewSource(99)), tab.NumCells(), 10)); err != nil {
			t.Errorf("budget %d: recovered engine cannot tick: %v", budget, err)
		}
		if err := e.Close(); err != nil {
			t.Errorf("budget %d: close after resume: %v", budget, err)
		}
	}
}

// checkRecoveryEquivalence recovers the crashed directory serially and
// through 1, 2 and 8 shards, and checks every result against the
// never-crashed reference and against each other. It returns the serial
// slab. No recovery ticks, so the directory is left as the crash left it
// (torn tail aside).
func checkRecoveryEquivalence(t *testing.T, name, dir string, ref *reference, applied int) []byte {
	t.Helper()
	tab := shardTable()
	// Serial recovery is the ground truth.
	serial, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatalf("%s: serial recovery: %v", name, err)
	}
	serialSlab := append([]byte(nil), serial.Store().Slab()...)
	serialRec := serial.Recovery()
	serial.Close()
	if !ref.matches(&Store{table: tab, slab: serialSlab, cellsPerObj: uint32(tab.CellsPerObject())}) {
		t.Fatalf("%s: serial recovery differs from never-crashed reference", name)
	}
	if serialRec.NextTick != uint64(applied) {
		t.Errorf("%s: serial NextTick %d, want %d", name, serialRec.NextTick, applied)
	}

	for _, shards := range []int{1, 2, 8} {
		e, pres, err := RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: shards})
		if err != nil {
			t.Fatalf("%s shards %d: RecoverFrom: %v", name, shards, err)
		}
		if !bytes.Equal(e.Store().Slab(), serialSlab) {
			t.Errorf("%s shards %d: parallel recovery differs from serial", name, shards)
		}
		if got := e.Recovery(); got.NextTick != serialRec.NextTick ||
			got.Restored != serialRec.Restored ||
			got.ReplayedTicks != serialRec.ReplayedTicks ||
			got.ReplayedUpdates != serialRec.ReplayedUpdates {
			t.Errorf("%s shards %d: recovery result %+v, serial %+v",
				name, shards, got, serialRec)
		}
		// Stage accounting sanity: the pipeline total may exceed the
		// stage sum only by bookkeeping noise (goroutine setup, the
		// reader's EOF scan), never by a stage's worth of serialization.
		// The slack is generous because loaded CI runners under -race
		// stretch scheduling gaps by orders of magnitude.
		if pres.TotalDuration > pres.RestoreDuration+pres.ReplayDuration+250*time.Millisecond {
			t.Errorf("%s shards %d: pipeline total %v far exceeds stage sum %v+%v",
				name, shards, pres.TotalDuration, pres.RestoreDuration, pres.ReplayDuration)
		}
		if len(pres.Shards) != e.Shards() {
			t.Errorf("%s shards %d: %d shard timings for %d shards",
				name, shards, len(pres.Shards), e.Shards())
		}
		// Closing without ticking leaves the directory untouched, so
		// every shard count recovers the same on-disk state.
		if err := e.Close(); err != nil {
			t.Errorf("%s shards %d: close: %v", name, shards, err)
		}
	}
	return serialSlab
}

// walSegments lists the start ticks in the names of dir's log segments,
// oldest first.
func walSegments(t *testing.T, dir string) []uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names) // zero-padded: name order is tick order
	starts := make([]uint64, len(names))
	for i, name := range names {
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.seg", &starts[i]); err != nil {
			t.Fatalf("segment name %q: %v", name, err)
		}
	}
	return starts
}

// walSegPath is the file of the segment starting at start.
func walSegPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", start))
}

// TestCrashRecoveryEquivalenceStaleSegment is TestCrashRecoveryEquivalence
// on a directory that still holds a sealed segment the newest image makes
// stale: a covering checkpoint taken between ticks, then a tail of ticks,
// then a crash. It pins the segment-naming invariant the skip rests on (the
// segment after a between-ticks checkpoint is named for its first record),
// that the stale segment is never opened (it may be corrupt), and that a
// directory named by an older build — one too high — recovers the same,
// merely without the skip.
func TestCrashRecoveryEquivalenceStaleSegment(t *testing.T) {
	tab := shardTable()
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ref := newReference(tab)
	rng := rand.New(rand.NewSource(77))
	tick := func(e *Engine, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			batch := randomBatch(rng, tab.NumCells(), 60)
			if err := e.ApplyTickParallel(batch); err != nil {
				t.Fatal(err)
			}
			ref.apply(batch)
		}
	}
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	tick(e, 30)
	if _, err := e.CheckpointAsOf(29); err != nil {
		t.Fatal(err)
	}
	starts := walSegments(t, walDir)
	newest := starts[len(starts)-1]
	if len(starts) < 2 || newest != e.NextTick() {
		t.Fatalf("segments %v after a checkpoint between ticks, want a stale one and the newest named %d", starts, e.NextTick())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The tail is written without a checkpointer, so no later image or
	// rotation changes which segments are stale.
	e, err = Open(Options{Table: tab, Dir: dir, Mode: ModeNone, SyncEveryTick: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	tick(e, 20)
	e.log.Close() //nolint:errcheck // crash
	if got := walSegments(t, walDir); fmt.Sprint(got) != fmt.Sprint(starts) {
		t.Fatalf("segments %v after the tail, want %v", got, starts)
	}
	r, err := wal.NewReader(walDir, newest)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := r.Next()
	r.Close()
	if err != nil || first != newest || r.Skipped() != len(starts)-1 {
		t.Fatalf("segment %d starts with tick %d (err %v), %d of %d skipped", newest, first, err, r.Skipped(), len(starts))
	}

	serialSlab := checkRecoveryEquivalence(t, "stale segment", dir, ref, 50)

	recoverSlab := func(name string) ([]byte, error) {
		e, _, err := RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeNone, Shards: 2})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		defer e.Close()
		return append([]byte(nil), e.Store().Slab()...), nil
	}
	// An older build named the segment one past its first record.
	oldName := func(old bool) {
		t.Helper()
		from, to := walSegPath(walDir, newest), walSegPath(walDir, newest+1)
		if !old {
			from, to = to, from
		}
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
	}
	oldName(true)
	if slab, err := recoverSlab("old naming"); err != nil || !bytes.Equal(slab, serialSlab) {
		t.Fatalf("directory with the segment named one too high: err %v, identical %v", err, bytes.Equal(slab, serialSlab))
	}
	oldName(false)

	// Garbage in every stale segment: a recovery that skips them succeeds...
	for _, start := range starts[:len(starts)-1] {
		data, err := os.ReadFile(walSegPath(walDir, start))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(walSegPath(walDir, start), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if slab, err := recoverSlab("corrupt stale segments"); err != nil || !bytes.Equal(slab, serialSlab) {
		t.Fatalf("corrupt stale segments: err %v, identical %v", err, bytes.Equal(slab, serialSlab))
	}
	serial, err := Open(Options{Table: tab, Dir: dir, Mode: ModeNone})
	if err != nil {
		t.Fatalf("serial recovery opened a stale segment: %v", err)
	}
	if !bytes.Equal(serial.Store().Slab(), serialSlab) {
		t.Error("serial recovery past corrupt stale segments differs")
	}
	serial.Close()
	// ...and one that cannot prove them stale still reports the corruption.
	oldName(true)
	if _, err := recoverSlab("old naming, corrupt"); err == nil {
		t.Fatal("corruption in a sealed segment that had to be read went unreported")
	}
}

// TestRecoverFromTornHeader corrupts one backup's header after a crash —
// parallel recovery must fall back to the intact image and still match the
// serial path byte for byte.
func TestRecoverFromTornHeader(t *testing.T) {
	tab := shardTable()
	dir := t.TempDir()
	ref, applied := crashRun(t, dir, 1<<40, 61)
	if applied == 0 {
		t.Fatal("no ticks applied")
	}
	// Tear backup B's header: flip bytes inside the checksummed region.
	path := filepath.Join(dir, "backup-b.img")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 9); err != nil {
		t.Fatal(err)
	}
	f.Close()

	serial, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	serialSlab := append([]byte(nil), serial.Store().Slab()...)
	serial.Close()

	e, _, err := RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !bytes.Equal(e.Store().Slab(), serialSlab) {
		t.Error("torn-header parallel recovery differs from serial")
	}
	if !ref.matches(e.Store()) {
		t.Error("torn-header parallel recovery differs from never-crashed reference")
	}
}

// TestRecoverFromActionRecords: action ticks replay correctly under the
// sharded pipeline when the action is a per-cell read-modify-write (writes
// derived from the payload and the cells being written — the documented
// contract).
func TestRecoverFromActionRecords(t *testing.T) {
	tab := shardTable()
	// Action payload: pairs of (cell u32, delta u32); replay adds delta to
	// each cell in payload order.
	replay := func(tick uint64, payload []byte, w *TickWriter) error {
		for len(payload) >= 8 {
			cell := binary.LittleEndian.Uint32(payload)
			delta := binary.LittleEndian.Uint32(payload[4:])
			if w.Owns(cell) { // skip (and never read) other shards' cells
				w.Set(cell, w.Cell(cell)+delta)
			}
			payload = payload[8:]
		}
		return nil
	}
	dir := t.TempDir()
	e, err := Open(Options{
		Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true,
		Shards: 4, ReplayAction: replay,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	const ticks = 40
	for i := 0; i < ticks; i++ {
		var payload []byte
		for j := 0; j < 30; j++ {
			var rec [8]byte
			binary.LittleEndian.PutUint32(rec[:4], uint32(rng.Intn(tab.NumCells())))
			binary.LittleEndian.PutUint32(rec[4:], rng.Uint32())
			payload = append(payload, rec[:]...)
		}
		p := payload
		if err := e.ApplyActionTick(p, func(w *TickWriter) error { return replay(uint64(i), p, w) }); err != nil {
			t.Fatal(err)
		}
	}
	e.cp.close()  //nolint:errcheck
	e.log.Close() //nolint:errcheck

	serial, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, ReplayAction: replay})
	if err != nil {
		t.Fatal(err)
	}
	serialSlab := append([]byte(nil), serial.Store().Slab()...)
	serial.Close()

	for _, shards := range []int{1, 4} {
		e2, _, err := RecoverFrom(Options{
			Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: shards, ReplayAction: replay,
		})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if !bytes.Equal(e2.Store().Slab(), serialSlab) {
			t.Errorf("shards %d: action replay differs from serial", shards)
		}
		if e2.NextTick() != ticks {
			t.Errorf("shards %d: NextTick %d, want %d", shards, e2.NextTick(), ticks)
		}
		e2.Close()
	}
}

// TestRecoverFromInMemory: nothing to recover, but the engine must come up
// ticking with an empty ParallelResult, mirroring Open's InMemory contract.
func TestRecoverFromInMemory(t *testing.T) {
	e, pres, err := RecoverFrom(Options{Table: testTable(), Mode: ModeCopyOnUpdate, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if pres.Restored || e.Recovery().BackupIndex != -1 {
		t.Errorf("in-memory recovery claimed a restore: %+v", pres)
	}
	if err := e.ApplyTick([]wal.Update{{Cell: 1, Value: 2}}); err != nil {
		t.Error(err)
	}
}
