package engine

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// writeMixedLog runs a fixed, seeded 32-tick history through a ModeNone
// engine in dir (no checkpoint: the log is the whole state) that uses every
// record kind — update batches, world + message envelopes, message-only
// ticks and a range install — and abandons it crash-style. It returns the
// slab the never-crashed engine ended with.
func writeMixedLog(t *testing.T, dir string) []byte {
	t.Helper()
	tab := shardTable()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeNone, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	cells := tab.NumCells()
	for tick := 0; tick < 32; tick++ {
		switch tick % 4 {
		case 0:
			err = e.ApplyTickParallel(randomBatch(rng, cells, 50))
		case 1:
			err = e.ApplyTickEnvelopes([]Envelope{
				{Origin: -1, Updates: randomBatch(rng, cells, 40)},
				{Origin: 1, OriginTick: uint64(tick - 1), Updates: randomBatch(rng, cells, 5)},
				{Origin: 2, OriginTick: uint64(tick - 1)}, // an empty message
			})
		case 2: // a tick that is one message and no world input
			err = e.ApplyTickEnvelopes([]Envelope{{Origin: 3, OriginTick: uint64(tick - 2), Updates: randomBatch(rng, cells, 20)}})
		case 3:
			// An install that straddles the 2- and 8-shard boundaries at
			// object 256, then the tick it is logged at.
			data := make([]byte, 4*tab.ObjSize)
			rng.Read(data)
			if err = e.InstallRange(254, 258, data); err == nil {
				err = e.ApplyTick(randomBatch(rng, cells, 30))
			}
		}
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	slab := append([]byte(nil), e.Store().Slab()...)
	e.cp.close()  //nolint:errcheck
	e.log.Close() //nolint:errcheck
	return slab
}

// recoverEveryWay recovers dir through Open at the options' width and
// through RecoverFrom at 1, 2 and 8 shards and requires all four to agree on
// the slab, the next tick and the replayed-update count. It returns Open's
// slab.
func recoverEveryWay(t *testing.T, opts Options) []byte {
	t.Helper()
	opened, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	slab := append([]byte(nil), opened.Store().Slab()...)
	want := opened.Recovery()
	opened.Close()
	for _, shards := range []int{1, 2, 8} {
		opts.Shards = shards
		e, pres, err := RecoverFrom(opts)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if e.Shards() != shards {
			t.Fatalf("plan folded to %d shards, want %d", e.Shards(), shards)
		}
		if !bytes.Equal(e.Store().Slab(), slab) {
			t.Errorf("shards %d: slab differs from Open's", shards)
		}
		if pres.ReplayedUpdates != want.ReplayedUpdates || pres.NextTick != want.NextTick || pres.ReplayedTicks != want.ReplayedTicks {
			t.Errorf("shards %d: replayed %d updates over %d ticks to tick %d; Open %d over %d to %d", shards,
				pres.ReplayedUpdates, pres.ReplayedTicks, pres.NextTick, want.ReplayedUpdates, want.ReplayedTicks, want.NextTick)
		}
		if pres.BatchesInFlightMax < 1 || pres.DecodeBusy <= 0 || pres.ApplyBusy <= 0 {
			t.Errorf("shards %d: replay stage not accounted: %d batches, decode %v, apply %v", shards,
				pres.BatchesInFlightMax, pres.DecodeBusy, pres.ApplyBusy)
		}
		e.Close()
	}
	return slab
}

// TestMixedLogRecoversAtEveryWidth: update, message and install records in
// one log come back byte-identical through Open and through the
// reader → decoders → appliers pipeline at 1, 2 and 8 shards, with the
// same replayed-update count, and equal to the engine that never crashed.
func TestMixedLogRecoversAtEveryWidth(t *testing.T) {
	dir := t.TempDir()
	live := writeMixedLog(t, dir)
	got := recoverEveryWay(t, Options{Table: shardTable(), Dir: dir, Mode: ModeNone})
	if !bytes.Equal(got, live) {
		t.Error("recovered slab differs from the engine that never crashed")
	}
}

// TestParentWrittenLogRecovers pins the log format across this change in
// both directions: testdata/parent-wal is writeMixedLog's directory as the
// commit before the decode stage wrote it. The same history written now
// must produce those bytes (so that commit reads what this one writes), and
// the checked-in bytes must recover, on every path, to the state the live
// engine held.
func TestParentWrittenLogRecovers(t *testing.T) {
	fresh := t.TempDir()
	live := writeMixedLog(t, fresh)
	segs, err := filepath.Glob(filepath.Join("testdata", "parent-wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no checked-in segments: %v", err)
	}
	old := t.TempDir()
	if err := os.Mkdir(filepath.Join(old, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, "wal", filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: this commit writes %d bytes that differ from the parent's %d", filepath.Base(seg), len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(old, "wal", filepath.Base(seg)), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if now, _ := filepath.Glob(filepath.Join(fresh, "wal", "*.seg")); len(now) != len(segs) {
		t.Errorf("this commit writes %d segments, the parent wrote %d", len(now), len(segs))
	}
	got := recoverEveryWay(t, Options{Table: shardTable(), Dir: old, Mode: ModeNone})
	if !bytes.Equal(got, live) {
		t.Error("the parent-written log recovers to a different state")
	}
}

// handWrittenLog writes the given record bodies, one per tick from 0, as the
// whole log of a fresh state directory.
func handWrittenLog(t *testing.T, bodies ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for tick, body := range bodies {
		if err := log.Append(uint64(tick), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func updatesRecord(updates ...wal.Update) []byte {
	return wal.EncodeUpdates([]byte{recUpdates}, updates)
}

// TestReplayDropsCellsPastTheTable: a logged update to a cell beyond the
// last object is dropped and not counted at every pipeline width alike.
func TestReplayDropsCellsPastTheTable(t *testing.T) {
	tab := shardTable()
	end := uint32(tab.NumObjects() * tab.CellsPerObject())
	dir := handWrittenLog(t,
		updatesRecord(wal.Update{Cell: 7, Value: 1}, wal.Update{Cell: end, Value: 2}, wal.Update{Cell: end - 1, Value: 3}),
		wal.EncodeMessage([]byte{recMessage}, 1, 0, []wal.Update{{Cell: 1<<32 - 1, Value: 4}, {Cell: 40_000, Value: 5}}),
	)
	opts := Options{Table: tab, Dir: dir, Mode: ModeNone}
	recoverEveryWay(t, opts)
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := e.Recovery().ReplayedUpdates; n != 3 {
		t.Errorf("replayed %d updates, want the 3 inside the table", n)
	}
	if e.Store().Cell(7) != 1 || e.Store().Cell(end-1) != 3 || e.Store().Cell(40_000) != 5 {
		t.Error("an in-table update next to a dropped one was lost")
	}
}

// TestUndecodableRecordNamesItsTick: a record whose frame is intact but
// whose body does not decode — a truncated batch, a message too short for
// its header, a record of the retired action kind 1 — fails recovery, through
// Open and at every width, with an error that says which tick it was.
func TestUndecodableRecordNamesItsTick(t *testing.T) {
	good := updatesRecord(wal.Update{Cell: 9, Value: 9})
	torn := updatesRecord(wal.Update{Cell: 70_000, Value: 1}, wal.Update{Cell: 3, Value: 2})
	shortMsg := []byte{recMessage, 1, 2, 3}
	action := []byte{1, 9, 0, 0, 0, 1, 0, 0, 0}
	for name, bad := range map[string][]byte{
		"truncated batch": torn[:len(torn)-2], "short message": shortMsg, "action": action,
	} {
		want := "tick 3"
		if name == "action" {
			want = "record kind 1 at tick 3"
		}
		dir := handWrittenLog(t, good, good, good, bad, good)
		opts := Options{Table: shardTable(), Dir: dir, Mode: ModeNone}
		if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Open error %v does not say %q", name, err, want)
		}
		for _, shards := range []int{1, 2, 8} {
			opts.Shards = shards
			if _, _, err := RecoverFrom(opts); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %d-shard recovery error %v does not say %q", name, shards, err, want)
			}
		}
	}
}

// TestRecoveryOfActionLogWithoutReplayFuncFails: a log written by an
// engine that still logged actions — here one kind-1 record and no
// checkpoint — cannot be replayed, since nothing interprets its payload;
// recovery refuses it rather than open with the action's effects missing.
func TestRecoveryOfActionLogWithoutReplayFuncFails(t *testing.T) {
	dir := handWrittenLog(t, []byte{1, 5, 0, 0, 0})
	if _, err := Open(Options{Table: shardTable(), Dir: dir, Mode: ModeNone}); err == nil {
		t.Error("recovery of an action log succeeded")
	}
}

// TestIngestRefusesRetiredActionKind: a standby refuses a replicated record
// of the retired action kind 1 with an error naming its tick, and the record
// never reaches the standby's log.
func TestIngestRefusesRetiredActionKind(t *testing.T) {
	tab := shardTable()
	dir := t.TempDir()
	e, err := OpenStandby(Options{Table: tab, Dir: dir, Mode: ModeNone}, 0, make([]byte, tab.StateBytes()))
	if err != nil {
		t.Fatal(err)
	}
	err = e.IngestReplicated(0, []byte{1, 9, 0, 0, 0, 1, 0, 0, 0})
	if err == nil || !strings.Contains(err.Error(), "record kind 1 at tick 0") {
		t.Errorf("ingest of a kind-1 record: %v", err)
	}
	if e.NextTick() != 0 {
		t.Errorf("refused record advanced the standby to tick %d", e.NextTick())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := wal.NewReader(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Next(); err != io.EOF {
		t.Errorf("the standby's log holds a record (or fails: %v)", err)
	}
}
