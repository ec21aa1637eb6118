package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// crashRun drives a Fault-device engine until the injected fault kills the
// checkpoint writer (or maxTicks elapse), then abandons it crash-style. Each
// backup fails from its own op budget on. It returns the reference state and
// the number of durably applied ticks.
func crashRun(t *testing.T, dir string, budget int, seed int64) (*reference, int) {
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

// TestCrashRecoveryEquivalence is the recovery correctness contract: after a
// crash at an arbitrary point mid-flush, Open and RecoverFrom at 1, 2 and 8
// shards must produce state byte-identical to an engine that never crashed.
func TestCrashRecoveryEquivalence(t *testing.T) {
	tab := shardTable()
	rng := rand.New(rand.NewSource(41))
	// An image costs a header write and sync, one write per dirty run, a
	// sync and the committing header write and sync: backup A's first image
	// (the first tick's dirty objects) takes about 60 ops and its next about
	// 120. The budgets land the fault inside the first image's data writes
	// and inside A's next image; one run survives to maxTicks without a
	// fault.
	budgets := []int{
		2 + rng.Intn(40),  // mid first flush
		70 + rng.Intn(40), // mid a later flush
		math.MaxInt,       // never trips: clean-ish crash
	}
	for bi, budget := range budgets {
		dir := t.TempDir()
		ref, applied := crashRun(t, dir, budget, int64(50+bi))
		if applied == 0 {
			t.Fatalf("budget %d: no ticks applied", budget)
		}

		checkRecoveryEquivalence(t, fmt.Sprintf("budget %d", budget), dir, ref, applied)

		// The crash may leave an image that covers every logged tick, and
		// then nothing replays. Log a tail past it without a checkpointer,
		// which leaves the images as the crash left them, and recover
		// again: now the log must replay at least the tail.
		e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeNone, SyncEveryTick: true, Shards: 4})
		if err != nil {
			t.Fatalf("budget %d: reopen for the tail: %v", budget, err)
		}
		const tailTicks = 5
		tail := rand.New(rand.NewSource(int64(70 + bi)))
		for i := 0; i < tailTicks; i++ {
			batch := randomBatch(tail, tab.NumCells(), 60)
			if err := e.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
			ref.apply(batch)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		checkRecoveryEquivalence(t, fmt.Sprintf("budget %d + tail", budget), dir, ref, applied+tailTicks)

		// A recovered engine must resume ticking (checkpoints from here on
		// rewrite the directory, so this runs after all comparisons).
		e, _, err = RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 2})
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

// checkRecoveryEquivalence recovers the crashed directory through Open and
// through RecoverFrom at 1, 2 and 8 shards, and checks every slab against the
// never-crashed reference and every recovery's counts against each other.
// It returns the recovered slab. No recovery ticks, so the directory is left
// as the crash left it (torn tail aside).
func checkRecoveryEquivalence(t *testing.T, name, dir string, ref *reference, applied int) []byte {
	t.Helper()
	tab := shardTable()
	var slab []byte
	var first recovery.Result
	// check compares one recovered engine with the reference and with the
	// first recovery, then closes it. Closing without ticking leaves the
	// directory untouched, so every recovery reads the same on-disk state.
	check := func(what string, e *Engine, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s: %v", name, what, err)
		}
		defer func() {
			if err := e.Close(); err != nil {
				t.Errorf("%s: %s: close: %v", name, what, err)
			}
		}()
		if !ref.matches(e.Store()) {
			t.Errorf("%s: %s differs from never-crashed reference", name, what)
		}
		got := e.Recovery()
		if slab == nil {
			slab, first = append([]byte(nil), e.Store().Slab()...), got
			if got.NextTick != uint64(applied) {
				t.Errorf("%s: %s NextTick %d, want %d", name, what, got.NextTick, applied)
			}
		}
		if got.NextTick != first.NextTick || got.Restored != first.Restored ||
			got.ReplayedTicks != first.ReplayedTicks || got.ReplayedUpdates != first.ReplayedUpdates {
			t.Errorf("%s: %s recovery result %+v, first recovery %+v", name, what, got, first)
		}
	}
	for _, shards := range []int{1, 2, 8} {
		opts := Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: shards}
		e, err := Open(opts)
		check(fmt.Sprintf("Open at %d shards", shards), e, err)
		e, pres, err := RecoverFrom(opts)
		check(fmt.Sprintf("RecoverFrom at %d shards", shards), e, err)
		// Stage accounting sanity: the pipeline total may exceed the
		// stage sum only by bookkeeping noise (goroutine setup, the
		// reader's EOF scan), never by a stage's worth of serialization.
		// The slack is generous because loaded CI runners under -race
		// stretch scheduling gaps by orders of magnitude.
		if pres.TotalDuration > pres.RestoreDuration+pres.ReplayDuration+250*time.Millisecond {
			t.Errorf("%s shards %d: pipeline total %v far exceeds stage sum %v+%v",
				name, shards, pres.TotalDuration, pres.RestoreDuration, pres.ReplayDuration)
		}
		if len(pres.Shards) != shards {
			t.Errorf("%s shards %d: %d shard timings", name, shards, len(pres.Shards))
		}
	}
	return slab
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
	// The first ticks are written without a checkpointer. A checkpointing
	// engine flushes back to back, and when one of those flushes is as of
	// tick 29 and completes before CheckpointAsOf(29) asks for a fresh one,
	// two images cover tick 29 and pruning rightly removes every segment
	// before 30, leaving nothing stale. The reopened engine below restores
	// no image, so its one checkpoint rotates without pruning.
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeNone, SyncEveryTick: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	tick(e, 30)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
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

	want := checkRecoveryEquivalence(t, "stale segment", dir, ref, 50)

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
	if slab, err := recoverSlab("old naming"); err != nil || !bytes.Equal(slab, want) {
		t.Fatalf("directory with the segment named one too high: err %v, identical %v", err, bytes.Equal(slab, want))
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
	if slab, err := recoverSlab("corrupt stale segments"); err != nil || !bytes.Equal(slab, want) {
		t.Fatalf("corrupt stale segments: err %v, identical %v", err, bytes.Equal(slab, want))
	}
	// ...and one that cannot prove them stale still reports the corruption.
	oldName(true)
	if _, err := recoverSlab("old naming, corrupt"); err == nil {
		t.Fatal("corruption in a sealed segment that had to be read went unreported")
	}
}

// TestRecoverFromTornHeader corrupts one backup's header after a crash —
// recovery must fall back to the intact image and still match the
// never-crashed reference byte for byte.
func TestRecoverFromTornHeader(t *testing.T) {
	tab := shardTable()
	dir := t.TempDir()
	ref, applied := crashRun(t, dir, math.MaxInt, 61)
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

	e, _, err := RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !ref.matches(e.Store()) {
		t.Error("torn-header recovery differs from never-crashed reference")
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
