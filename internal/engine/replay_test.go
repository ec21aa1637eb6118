package engine

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gamestate"
	"repro/internal/wal"
)

// writeMixedLog runs a fixed, seeded 32-tick history through a ModeNone
// engine in dir (no checkpoint: the log is the whole state) that uses every
// record kind — update batches, world + message envelopes, ticks whose
// world input is empty and a range install — and abandons it crash-style. It returns the
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
			err = e.ApplyTick(randomBatch(rng, cells, 50))
		case 1:
			err = applyLogged(e, []Envelope{
				{Origin: -1, Updates: randomBatch(rng, cells, 40)},
				{Origin: 1, OriginTick: uint64(tick - 1), Updates: randomBatch(rng, cells, 5)},
				{Origin: 2, OriginTick: uint64(tick - 1)}, // an empty message
			})
		case 2: // a tick that is one message and an empty world input
			err = applyLogged(e, []Envelope{{Origin: -1}, {Origin: 3, OriginTick: uint64(tick - 2), Updates: randomBatch(rng, cells, 20)}})
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
		// A log this short fits one replay window.
		if pres.Windows != 1 || pres.ApplyBusy <= 0 {
			t.Errorf("shards %d: replay stage not accounted: %d windows, apply %v", shards,
				pres.Windows, pres.ApplyBusy)
		}
		e.Close()
	}
	return slab
}

// TestMixedLogRecoversAtEveryWidth: update, message and install records in
// one log come back byte-identical through Open and through the
// windowed, page-major pipeline at 1, 2 and 8 shards, with the same
// replayed-update count, and equal to the engine that never crashed.
func TestMixedLogRecoversAtEveryWidth(t *testing.T) {
	dir := t.TempDir()
	live := writeMixedLog(t, dir)
	got := recoverEveryWay(t, Options{Table: shardTable(), Dir: dir, Mode: ModeNone})
	if !bytes.Equal(got, live) {
		t.Error("recovered slab differs from the engine that never crashed")
	}
}

// TestLegacyAndRunRecordsMixInOneLog: a log whose ticks alternate between
// run records (the engine's own) and varint records in arrival order (what
// logs before the run kinds hold) — updates, messages, a cell past the
// table — recovers at every width to the state of an engine that logged
// every tick as runs, with the same replayed-update count.
func TestLegacyAndRunRecordsMixInOneLog(t *testing.T) {
	// 7.6 pages of cells: at two shards the boundary falls inside a page, so
	// a worker skips pages, stores whole ones and filters the shared one.
	tab := gamestate.Table{Rows: 50_000, Cols: 10, CellSize: 4, ObjSize: 512}
	rng := rand.New(rand.NewSource(46))
	cells := tab.NumCells()
	past := wal.Update{Cell: uint32(tab.NumObjects()*tab.CellsPerObject()) + 7, Value: 9}
	ticks := make([][]Envelope, 24)
	for i := range ticks {
		ticks[i] = []Envelope{
			{Origin: -1, Updates: append(randomBatch(rng, cells, 40), past)},
			{Origin: 2, OriginTick: uint64(i), Updates: randomBatch(rng, cells, 6)},
		}
	}
	runsOnly, mixed := t.TempDir(), t.TempDir()
	ref, err := Open(Options{Table: tab, Dir: runsOnly, Mode: ModeNone, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, envs := range ticks {
		if err := applyLogged(ref, envs); err != nil {
			t.Fatal(err)
		}
	}
	live := bytes.Clone(ref.Store().Slab())
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	// The mixed log: ticks in blocks of four, the engine logging the even
	// blocks and a varint append the odd ones, between recoveries.
	for block := 0; block < len(ticks)/4; block++ {
		if block%2 == 0 {
			e, err := Open(Options{Table: tab, Dir: mixed, Mode: ModeNone, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, envs := range ticks[4*block : 4*block+4] {
				if err := applyLogged(e, envs); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		log, err := wal.Open(filepath.Join(mixed, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 4 * block; i < 4*block+4; i++ {
			for _, env := range ticks[i] {
				if err := log.Append(uint64(i), varintRecord(env)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want := recoverEveryWay(t, Options{Table: tab, Dir: runsOnly, Mode: ModeNone})
	got := recoverEveryWay(t, Options{Table: tab, Dir: mixed, Mode: ModeNone})
	if !bytes.Equal(want, live) || !bytes.Equal(got, live) {
		t.Fatalf("recovered slabs differ from the live engine's (runs only %v, mixed %v)",
			bytes.Equal(want, live), bytes.Equal(got, live))
	}
	a, err := Open(Options{Table: tab, Dir: runsOnly, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(Options{Table: tab, Dir: mixed, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if ra, rb := a.Recovery(), b.Recovery(); ra.ReplayedUpdates != rb.ReplayedUpdates || ra.NextTick != rb.NextTick ||
		ra.ReplayedUpdates != int64(len(ticks)*46) {
		t.Errorf("runs-only log replayed %d updates to tick %d, mixed log %d to %d; want %d in-table updates",
			ra.ReplayedUpdates, ra.NextTick, rb.ReplayedUpdates, rb.NextTick, len(ticks)*46)
	}
}

// TestParentWrittenLogRecovers: testdata/parent-wal is writeMixedLog's
// directory as the engine wrote it before it logged runs — varint update and
// message records in arrival order. The checked-in bytes must recover, on
// every path, to the state the live engine holds.
func TestParentWrittenLogRecovers(t *testing.T) {
	live := writeMixedLog(t, t.TempDir())
	got := recoverEveryWay(t, Options{Table: shardTable(), Dir: fixtureDir(t, "parent-wal"), Mode: ModeNone})
	if !bytes.Equal(got, live) {
		t.Error("the parent-written log recovers to a different state")
	}
}

// TestRunWrittenLogIsPinned pins the run format: testdata/runs-wal is
// writeMixedLog's directory as this format writes it. The same history
// written now must produce those bytes, segment for segment, and the
// checked-in bytes must recover, on every path, to the live engine's state.
func TestRunWrittenLogIsPinned(t *testing.T) {
	fresh := t.TempDir()
	live := writeMixedLog(t, fresh)
	pinned := fixtureDir(t, "runs-wal")
	segs, _ := filepath.Glob(filepath.Join(pinned, "wal", "*.seg"))
	if now, _ := filepath.Glob(filepath.Join(fresh, "wal", "*.seg")); len(now) != len(segs) {
		t.Errorf("the history writes %d segments, the fixture holds %d", len(now), len(segs))
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
			t.Errorf("%s: the history writes %d bytes that differ from the fixture's %d", filepath.Base(seg), len(got), len(want))
		}
	}
	got := recoverEveryWay(t, Options{Table: shardTable(), Dir: pinned, Mode: ModeNone})
	if !bytes.Equal(got, live) {
		t.Error("the pinned run log recovers to a different state")
	}
}

// fixtureDir copies testdata/<name>'s segments into the wal directory of a
// fresh state directory and returns it.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join("testdata", name, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no checked-in segments in testdata/%s: %v", name, err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", filepath.Base(seg)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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
// last object — in a varint record, or in a run record's pages past the
// table — is dropped and not counted at every pipeline width alike.
func TestReplayDropsCellsPastTheTable(t *testing.T) {
	tab := shardTable()
	end := uint32(tab.NumObjects() * tab.CellsPerObject())
	dir := handWrittenLog(t,
		updatesRecord(wal.Update{Cell: 7, Value: 1}, wal.Update{Cell: end, Value: 2}, wal.Update{Cell: end - 1, Value: 3}),
		wal.EncodeUpdates(wal.AppendMessageHeader([]byte{recMessage}, 1, 0), []wal.Update{{Cell: 1<<32 - 1, Value: 4}, {Cell: 40_000, Value: 5}}),
		runRecord(Envelope{Origin: -1, Updates: []wal.Update{{Cell: end - 2, Value: 6}, {Cell: end + 70_000, Value: 7}, {Cell: 1<<32 - 1, Value: 8}}}),
	)
	opts := Options{Table: tab, Dir: dir, Mode: ModeNone}
	recoverEveryWay(t, opts)
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := e.Recovery().ReplayedUpdates; n != 4 {
		t.Errorf("replayed %d updates, want the 4 inside the table", n)
	}
	if e.Store().Cell(7) != 1 || e.Store().Cell(end-1) != 3 || e.Store().Cell(40_000) != 5 || e.Store().Cell(end-2) != 6 {
		t.Error("an in-table update next to a dropped one was lost")
	}
}

// TestUndecodableRecordNamesItsTick: a record whose frame is intact but
// whose body does not decode — a truncated batch of either encoding, a
// message too short for its header, a record of the retired action kind 1 —
// fails recovery, through Open and at every width, with an error that says
// which tick it was.
func TestUndecodableRecordNamesItsTick(t *testing.T) {
	good := updatesRecord(wal.Update{Cell: 9, Value: 9})
	torn := updatesRecord(wal.Update{Cell: 70_000, Value: 1}, wal.Update{Cell: 3, Value: 2})
	shortMsg := []byte{recMessage, 1, 2, 3}
	action := []byte{1, 9, 0, 0, 0, 1, 0, 0, 0}
	tornRuns := runRecord(Envelope{Origin: -1, Updates: []wal.Update{{Cell: 3, Value: 2}, {Cell: 70_000, Value: 1}}})
	for name, bad := range map[string][]byte{
		"truncated batch": torn[:len(torn)-2], "short message": shortMsg, "action": action,
		"truncated runs": tornRuns[:len(tornRuns)-2], "short run message": {recMessageRuns, 1, 2, 3},
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
	e, err := OpenStandby(Options{Table: tab, Dir: dir, Mode: ModeNone}, nil)
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
