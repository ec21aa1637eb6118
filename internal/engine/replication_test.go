package engine

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestFollowLogSignalsAndFlushes: a log follower's subscription sees a
// coalesced signal per tick, and the freshly appended record is already
// visible to a wal.Reader following the log when the signal arrives (the
// flush barrier).
func TestFollowLogSignalsAndFlushes(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := e.FollowLog()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	r, err := wal.NewReader(e.WALDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for tick := 0; tick < 5; tick++ {
		if err := e.ApplyTick([]wal.Update{{Cell: uint32(tick), Value: uint32(tick)}}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-f.sub.C:
			if got != uint64(tick) {
				t.Fatalf("signal carried tick %d, want %d", got, tick)
			}
		case <-time.After(time.Second):
			t.Fatalf("no signal for tick %d", tick)
		}
		// The record must be on disk (flushed) by signal time.
		rt, _, err := r.Next()
		if err != nil || rt != uint64(tick) {
			t.Fatalf("reader after tick %d: tick=%d err=%v", tick, rt, err)
		}
	}
}

func TestFollowLogRequiresLog(t *testing.T) {
	e, err := Open(Options{Table: testTable(), InMemory: true, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.FollowLog(); err == nil {
		t.Fatal("FollowLog on an InMemory engine did not fail")
	}
}

// TestSnapshotIsTickConsistent: the handoff covers exactly the ticks before
// nextTick, regardless of how much is applied afterwards.
func TestSnapshotIsTickConsistent(t *testing.T) {
	tab := testTable()
	e, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	ref := newReference(tab)
	for tick := 0; tick < 10; tick++ {
		batch := randomBatch(rng, tab.NumCells(), 32)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		ref.apply(batch)
	}
	nextTick, snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if nextTick != 10 {
		t.Fatalf("snapshot nextTick %d, want 10", nextTick)
	}
	if !bytes.Equal(snap, e.Store().Slab()) {
		t.Fatal("snapshot differs from the slab at capture time")
	}
	// More ticks must not retroactively change the captured copy.
	before := append([]byte(nil), snap...)
	for tick := 0; tick < 5; tick++ {
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snap, before) {
		t.Fatal("snapshot mutated by later ticks")
	}
}

// TestSubscriberRetainsLog: with a subscriber that still needs tick 0, the
// engine's checkpoint-driven pruning must not delete any segment; once the
// watermark advances past the usual prune point, pruning resumes.
func TestSubscriberRetainsLog(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := e.FollowLog()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(9))
	checkpoint := func() {
		t.Helper()
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		checkpoint()
	}
	// Everything must still replay from tick 0 for the subscriber.
	if seen, got := len(logTicks(t, e.log)), int(e.NextTick()); seen != got {
		t.Fatalf("with need=0, log replays %d ticks, want all %d", seen, got)
	}

	// Advance the watermark beyond the log: pruning behaves as without
	// a subscriber again.
	f.NeedFrom(e.NextTick())
	for i := 0; i < 2; i++ {
		checkpoint()
	}
	if ticks := logTicks(t, e.log); len(ticks) == 0 || ticks[0] == 0 {
		t.Fatalf("after watermark advance, log still starts at tick 0 (ticks %v)", ticks)
	}
}

// logTicks returns the tick of every record l holds, in log order.
func logTicks(t *testing.T, l *wal.Log) []uint64 {
	t.Helper()
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var ticks []uint64
	for {
		tick, _, err := r.Next()
		if err == io.EOF {
			return ticks
		}
		if err != nil {
			t.Fatal(err)
		}
		ticks = append(ticks, tick)
	}
}

// TestStandbyLifecycle: OpenStandby installs the snapshot and bootstrap
// image, gates normal ticking, ingests in strict order, and Promote makes
// the engine a normal primary whose on-disk state recovers byte-identically.
func TestStandbyLifecycle(t *testing.T) {
	tab := testTable()
	rng := rand.New(rand.NewSource(11))

	// A primary with some history provides the snapshot.
	pdir := t.TempDir()
	p, err := Open(Options{Table: tab, Dir: pdir, Mode: ModeCopyOnUpdate, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]wal.Update
	for tick := 0; tick < 6; tick++ {
		batch := randomBatch(rng, tab.NumCells(), 24)
		batches = append(batches, batch)
		if err := p.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	nextTick, snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	sdir := t.TempDir()
	s, err := OpenStandby(Options{Table: tab, Dir: sdir, Mode: ModeCopyOnUpdate, SyncEveryTick: true}, nextTick, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsStandby() {
		t.Fatal("OpenStandby engine does not report standby")
	}
	if err := s.ApplyTick(batches[0]); err == nil {
		t.Fatal("standby accepted ApplyTick before Promote")
	}

	// Feed three more primary ticks through both engines.
	enc := func(batch []wal.Update) []byte {
		body := []byte{recUpdates}
		return wal.EncodeUpdates(body, batch)
	}
	for tick := 6; tick < 9; tick++ {
		batch := randomBatch(rng, tab.NumCells(), 24)
		if err := p.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestReplicated(uint64(tick), enc(batch)); err != nil {
			t.Fatal(err)
		}
	}
	// Gap and replay protection.
	if err := s.IngestReplicated(12, enc(batches[0])); err == nil {
		t.Fatal("standby accepted a tick gap")
	}

	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if s.IsStandby() {
		t.Fatal("promoted engine still reports standby")
	}
	if !bytes.Equal(s.Store().Slab(), p.Store().Slab()) {
		t.Fatal("promoted standby differs from primary")
	}
	// The promoted engine ticks normally.
	if err := s.ApplyTick(randomBatch(rng, tab.NumCells(), 8)); err != nil {
		t.Fatalf("promoted engine rejects ApplyTick: %v", err)
	}
	promotedSlab := append([]byte(nil), s.Store().Slab()...)
	wantNext := s.NextTick()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Standby durability: a crash-restart of the standby's own directory
	// recovers through its bootstrap image + own log to the same bytes.
	s2, err := Open(Options{Table: tab, Dir: sdir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Recovery(); !got.Restored {
		t.Fatal("standby restart found no bootstrap image")
	}
	if s2.NextTick() != wantNext {
		t.Fatalf("standby restart recovered to tick %d, want %d", s2.NextTick(), wantNext)
	}
	if !bytes.Equal(s2.Store().Slab(), promotedSlab) {
		t.Fatal("standby restart state differs from promoted state")
	}
}

func TestOpenStandbyRejectsUsedDirAndBadGeometry(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyTick([]wal.Update{{Cell: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	snap := make([]byte, tab.StateBytes())
	if _, err := OpenStandby(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate}, 1, snap); err == nil {
		t.Fatal("OpenStandby accepted a directory with prior state")
	}
	if _, err := OpenStandby(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate}, 1, snap[:8]); err == nil {
		t.Fatal("OpenStandby accepted a short snapshot")
	}
	if _, err := OpenStandby(Options{Table: tab, Dir: t.TempDir(), Mode: ModeNone}, 1, snap); err == nil {
		t.Fatal("OpenStandby accepted ModeNone with history")
	}
}

// TestSubscribeCommitsWorksEverywhereAndNeverPins: a commit-only
// subscription signals on an InMemory engine (where FollowLog refuses),
// and on a durable engine it neither pins log pruning nor forces per-tick
// flushes on the commit path.
func TestSubscribeCommitsWorksEverywhereAndNeverPins(t *testing.T) {
	mem, err := Open(Options{Table: testTable(), InMemory: true, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	sub := mem.SubscribeCommits()
	defer sub.Close()
	for tick := 0; tick < 3; tick++ {
		if err := mem.ApplyTick([]wal.Update{{Cell: uint32(tick), Value: 7}}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-sub.C:
			if got != uint64(tick) {
				t.Fatalf("signal carried tick %d, want %d", got, tick)
			}
		case <-time.After(time.Second):
			t.Fatalf("no commit signal for tick %d", tick)
		}
	}

	// Retention: a commit-only subscriber must not lower the prune floor.
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cs := e.SubscribeCommits()
	defer cs.Close()
	if got := e.retainFrom(42); got != 42 {
		t.Fatalf("commit-only subscriber moved the prune floor to %d, want 42", got)
	}
}

// TestLogFollowerRestartRereadsFromFloor: after Restart, Next reads the log
// again from the floor it is given — lower than, or equal to, where the
// follower stood — and a tick committed before the restart is still yielded
// on an idle engine: the commit watermark survives the restart.
func TestLogFollowerRestartRereadsFromFloor(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := e.FollowLog()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const ticks = 6
	for tick := 0; tick < ticks; tick++ {
		if err := e.ApplyTick([]wal.Update{{Cell: uint32(tick), Value: uint32(tick)}}); err != nil {
			t.Fatal(err)
		}
	}
	// read yields from floor through the last tick; the engine commits
	// nothing more, so the last one is whole only by the commit watermark.
	read := func(floor uint64) {
		t.Helper()
		stop := make(chan struct{})
		timer := time.AfterFunc(10*time.Second, func() { close(stop) })
		defer timer.Stop()
		for want := floor; want < ticks; want++ {
			tick, recs, ok, err := f.Next(floor, stop)
			if err != nil || !ok || tick != want || len(recs) != 1 {
				t.Fatalf("Next(%d) = tick %d, %d records, ok=%v, err=%v; want tick %d", floor, tick, len(recs), ok, err, want)
			}
		}
	}
	read(3)
	f.Restart()
	read(1)
	f.Restart()
	read(1)
}
