package engine

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestSnapshotInstallRoundTrip moves a range between two live engines the
// way a cluster migration cutover does, then crash-recovers the target
// through both recovery paths: the installed range must survive byte-exact,
// because InstallRange logged it to the target's own WAL.
func TestSnapshotInstallRoundTrip(t *testing.T) {
	tab := shardTable()
	rng := rand.New(rand.NewSource(7))
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")

	a, err := Open(Options{Table: tab, Dir: dirA, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(Options{Table: tab, Dir: dirB, Mode: ModeCopyOnUpdate, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := a.ApplyTick(randomBatch(rng, tab.NumCells(), 80)); err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyTick(randomBatch(rng, tab.NumCells(), 80)); err != nil {
			t.Fatal(err)
		}
	}

	lo, hi := 64, 256
	_, data, err := a.SnapshotRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, a.Store().SlabRange(lo, hi)) {
		t.Fatal("snapshot differs from the source slab range")
	}
	if err := b.InstallRange(lo, hi, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Store().SlabRange(lo, hi), data) {
		t.Fatal("install did not land in the target slab")
	}
	// More ticks after the install, some touching the installed range.
	for i := 0; i < 8; i++ {
		if err := b.ApplyTick(randomBatch(rng, tab.NumCells(), 80)); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte(nil), b.Store().Slab()...)
	wantTick := b.NextTick()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery at every width must replay the install record to the same
	// bytes and the same next tick.
	for _, shards := range []int{1, 2, 8} {
		pe, _, err := RecoverFrom(Options{Table: tab, Dir: dirB, Mode: ModeCopyOnUpdate, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if pe.NextTick() != wantTick {
			t.Fatalf("shards=%d: recovery to tick %d, want %d", shards, pe.NextTick(), wantTick)
		}
		if !bytes.Equal(pe.Store().Slab(), want) {
			t.Fatalf("shards=%d: recovery diverges after range install", shards)
		}
		if err := pe.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInstallRangeValidation pins the error surface: bad ranges, wrong
// sizes, and installing before any tick are rejected without side effects.
func TestInstallRangeValidation(t *testing.T) {
	tab := shardTable()
	e, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	objSize := e.Store().ObjSize()
	if err := e.InstallRange(0, 64, make([]byte, 64*objSize)); err == nil ||
		!strings.Contains(err.Error(), "before any tick") {
		t.Fatalf("install before first tick: got %v", err)
	}
	if err := e.ApplyTick(randomBatch(rand.New(rand.NewSource(1)), tab.NumCells(), 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallRange(32, 16, nil); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := e.InstallRange(0, e.Store().NumObjects()+1, nil); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
	if err := e.InstallRange(0, 64, make([]byte, 63*objSize)); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, _, err := e.SnapshotRange(10, 10); err == nil {
		t.Fatal("empty snapshot range accepted")
	}
}

// TestIngestReplicatedInstall covers the shipper path: a standby receiving
// a primary's install record — tick one below its expected next — applies
// it instead of reporting a replication gap.
func TestIngestReplicatedInstall(t *testing.T) {
	tab := shardTable()
	rng := rand.New(rand.NewSource(3))
	dirP := filepath.Join(t.TempDir(), "p")
	dirS := filepath.Join(t.TempDir(), "s")

	p, err := Open(Options{Table: tab, Dir: dirP, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	var updBuf []byte
	appendTick := func(tick uint64, batch []wal.Update) {
		updBuf = wal.EncodeRuns(append(updBuf[:0], recUpdateRuns), batch)
		records = append(records, append([]byte(nil), updBuf...))
		if err := p.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		_ = tick
	}
	for i := 0; i < 4; i++ {
		appendTick(uint64(i), randomBatch(rng, tab.NumCells(), 40))
	}
	if _, err := p.CheckpointAsOf(3); err != nil {
		t.Fatal(err)
	}
	s := standbyOf(t, p, Options{Table: tab, Dir: dirS, Mode: ModeCopyOnUpdate})
	next := s.NextTick()
	// One more tick on both, then an install record shipped at that tick.
	batch := randomBatch(rng, tab.NumCells(), 40)
	if err := p.ApplyTick(batch); err != nil {
		t.Fatal(err)
	}
	updBuf = wal.EncodeRuns(append(updBuf[:0], recUpdateRuns), batch)
	if err := s.IngestReplicated(next, updBuf); err != nil {
		t.Fatal(err)
	}
	_, data, err := p.SnapshotRange(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InstallRange(0, 128, data); err != nil {
		t.Fatal(err)
	}
	// The primary logged the install at its next tick (5) without
	// advancing; the standby mirrors both properties.
	installTick := s.NextTick()
	install := appendInstallRecord(nil, 0, 128, data)
	if err := s.IngestReplicated(installTick, install); err != nil {
		t.Fatalf("standby rejected shipped install: %v", err)
	}
	if s.NextTick() != installTick {
		t.Fatalf("install moved the standby tick: %d, want %d", s.NextTick(), installTick)
	}
	if !bytes.Equal(s.Store().Slab(), p.Store().Slab()) {
		t.Fatal("standby diverges from primary after shipped install")
	}
	// A genuine gap is still a gap.
	if err := s.IngestReplicated(next+5, updBuf); err == nil {
		t.Fatal("replication gap accepted")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallAfterCoveringCheckpoint is the regression test for the
// install-record anchoring: an image labeled as-of the last applied tick
// already exists (without the install's bytes) when the install runs.
// Because installs are logged at the *next* tick, replay applies the
// record on top of that image — logging at the last applied tick would
// have let replay (and pruning) treat it as covered and lose the range.
// Recovery must also not count the trailing install as an applied tick.
func TestInstallAfterCoveringCheckpoint(t *testing.T) {
	tab := shardTable()
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 80)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CheckpointAsOf(2); err != nil { // image as-of the last applied tick
		t.Fatal(err)
	}
	data := make([]byte, (160-32)*tab.ObjSize)
	rng.Read(data)
	if err := e.InstallRange(32, 160, data); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 4} { // 0 = Open at the default width
		var re *Engine
		var err error
		if shards == 0 {
			re, err = Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate})
		} else {
			re, _, err = RecoverFrom(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: shards})
		}
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(re.Store().SlabRange(32, 160), data) {
			t.Fatalf("shards=%d: installed range lost across a covering checkpoint", shards)
		}
		if re.NextTick() != 3 {
			t.Fatalf("shards=%d: recovered to tick %d, want 3 (the install is not an applied tick)",
				shards, re.NextTick())
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointAsOf pins the satellite contract: the returned info always
// covers the requested tick, however many back-to-back flushes that takes,
// and unapplied ticks are rejected.
func TestCheckpointAsOf(t *testing.T) {
	tab := shardTable()
	rng := rand.New(rand.NewSource(9))
	e, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.CheckpointAsOf(0); err == nil {
		t.Fatal("checkpoint as-of an unapplied tick accepted")
	}
	for i := 0; i < 24; i++ {
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 120)); err != nil {
			t.Fatal(err)
		}
	}
	target := e.NextTick() - 1
	info, err := e.CheckpointAsOf(target)
	if err != nil {
		t.Fatal(err)
	}
	if info.AsOfTick < target {
		t.Fatalf("checkpoint as-of %d returned image as-of %d", target, info.AsOfTick)
	}
}
