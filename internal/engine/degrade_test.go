package engine

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// flakyDev fails every write once tripped; until then it passes through.
type flakyDev struct {
	disk.Device
	trip *atomic.Bool
	err  error
}

func (d *flakyDev) WriteAt(p []byte, off int64) (int, error) {
	if d.trip.Load() {
		return 0, d.err
	}
	return d.Device.WriteAt(p, off)
}

func (d *flakyDev) Sync() error {
	if d.trip.Load() {
		return d.err
	}
	return d.Device.Sync()
}

// checkpointingModes is every mode that writes images.
var checkpointingModes = []Mode{ModeNaiveSnapshot, ModeCopyOnUpdate, ModeAtomicCopy, ModeDribble}

// TestCheckpointDegradeSurvivesOneSickBackup drives an engine into a
// mid-flush device failure on one backup and proves the degrade contract:
// ticking continues, later checkpoints land on the survivor, CheckpointNow
// does not hang on the aborted flush, and recovery from the directory (with
// healthy devices) still reconstructs the exact state.
func TestCheckpointDegradeSurvivesOneSickBackup(t *testing.T) {
	for _, mode := range checkpointingModes {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			table := gamestate.Table{Rows: 256, Cols: 4, CellSize: 4, ObjSize: 64}
			sickErr := errors.New("disk: medium died")
			var trip atomic.Bool
			opts := Options{
				Table: table, Dir: dir, Mode: mode, SyncEveryTick: true,
				DeviceFactory: func(path string) (disk.Device, error) {
					dev, err := disk.OpenFile(path)
					if err != nil {
						return nil, err
					}
					if strings.HasSuffix(path, "backup-a.img") {
						return &flakyDev{Device: dev, trip: &trip, err: sickErr}, nil
					}
					return dev, nil
				},
			}
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tick := func(v uint32) {
				t.Helper()
				batch := make([]wal.Update, 8)
				for i := range batch {
					batch[i] = wal.Update{Cell: uint32(i * 7), Value: v}
				}
				if err := e.ApplyTick(batch); err != nil {
					t.Fatal(err)
				}
			}
			// A healthy checkpoint first, so both families have seen life.
			tick(1)
			if _, err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			// Trip backup A and checkpoint until the rotation hits it. The
			// aborted flush must degrade, not wedge or kill the engine.
			trip.Store(true)
			for i := 0; i < 4 && !e.CheckpointDegraded(); i++ {
				tick(uint32(2 + i))
				if _, err := e.CheckpointNow(); err != nil {
					t.Fatalf("checkpoint during degrade: %v", err)
				}
			}
			if !e.CheckpointDegraded() {
				t.Fatal("checkpointer never degraded")
			}
			// Degraded but alive: more ticks, more checkpoints, all on the
			// survivor.
			tick(99)
			info, err := e.CheckpointNow()
			if err != nil {
				t.Fatalf("degraded checkpoint: %v", err)
			}
			if info.AsOfTick != e.NextTick()-1 {
				t.Fatalf("degraded checkpoint as-of %d, want %d", info.AsOfTick, e.NextTick()-1)
			}
			want := append([]byte(nil), e.Store().Slab()...)
			wantTick := e.NextTick()
			if err := e.Close(); err != nil {
				t.Fatalf("close degraded engine: %v", err)
			}

			// Crash-recover the directory with healthy devices: the survivor
			// image (plus the unpruned log) must reconstruct the state.
			trip.Store(false)
			re, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.NextTick() != wantTick {
				t.Fatalf("recovered to tick %d, want %d", re.NextTick(), wantTick)
			}
			if got := re.Store().Slab(); string(got) != string(want) {
				t.Fatal("recovered state differs from the degraded engine's")
			}
		})
	}
}

// TestDegradedGaugeMatchesVerdict: engine_checkpoint_degraded tells a scrape
// what CheckpointDegraded tells the caller. It reads 0 once an engine opens,
// 1 once a flush loses a backup, and 0 again after a fresh Open of the same
// directory on healthy devices.
func TestDegradedGaugeMatchesVerdict(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	gauge := func() int64 {
		v, ok := telemetry.GaugeValue("engine_checkpoint_degraded")
		if !ok {
			t.Fatal("gauge engine_checkpoint_degraded is not registered")
		}
		return v
	}
	var trip atomic.Bool
	opts := Options{Table: gamestate.Table{Rows: 256, Cols: 4, CellSize: 4, ObjSize: 64}, Dir: t.TempDir(), Mode: ModeCopyOnUpdate}
	sick := opts
	sick.DeviceFactory = func(path string) (disk.Device, error) {
		dev, err := disk.OpenFile(path)
		if err != nil || !strings.HasSuffix(path, "backup-a.img") {
			return dev, err
		}
		return &flakyDev{Device: dev, trip: &trip, err: errors.New("disk: medium died")}, nil
	}
	e, err := Open(sick)
	if err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("gauge reads %d on a healthy engine", g)
	}
	trip.Store(true)
	for i := uint32(0); i < 2 && !e.CheckpointDegraded(); i++ {
		if err := e.ApplyTick([]wal.Update{{Cell: i, Value: i + 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if !e.CheckpointDegraded() {
		t.Fatal("checkpointer never degraded")
	}
	if g := gauge(); g != 1 {
		t.Fatalf("degraded engine, gauge reads %d", g)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.CheckpointDegraded() {
		t.Fatal("engine on healthy devices reports degraded")
	}
	if g := gauge(); g != 0 {
		t.Fatalf("fresh engine on healthy devices, gauge reads %d", g)
	}
}

// TestCheckpointBothBackupsSickIsFatal is the other half of the degrade
// rule: when the survivor fails too there is no healthy family left, so the
// writer's error reaches every caller — CheckpointNow returns it instead of
// waiting for a completion that cannot come, and the engine refuses further
// ticks.
func TestCheckpointBothBackupsSickIsFatal(t *testing.T) {
	for _, mode := range checkpointingModes {
		t.Run(mode.String(), func(t *testing.T) {
			sickErr := errors.New("disk: medium died")
			var trip atomic.Bool
			e, err := Open(Options{
				Table: gamestate.Table{Rows: 256, Cols: 4, CellSize: 4, ObjSize: 64},
				Dir:   t.TempDir(), Mode: mode,
				DeviceFactory: func(path string) (disk.Device, error) {
					dev, err := disk.OpenFile(path)
					if err != nil {
						return nil, err
					}
					return &flakyDev{Device: dev, trip: &trip, err: sickErr}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			batch := []wal.Update{{Cell: 3, Value: 1}}
			if err := e.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			trip.Store(true)
			if err := e.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
			// The first failure degrades, the retry against the survivor
			// fails too: CheckpointNow must come back with the device error.
			if _, err := e.CheckpointNow(); !errors.Is(err, sickErr) {
				t.Fatalf("CheckpointNow with both backups sick: %v, want %v", err, sickErr)
			}
			if !e.CheckpointDegraded() {
				t.Error("engine with two sick backups does not report degraded")
			}
			if err := e.ApplyTick(batch); !errors.Is(err, sickErr) {
				t.Fatalf("ApplyTick after the fatal failure: %v, want %v", err, sickErr)
			}
			if _, err := e.CheckpointNow(); !errors.Is(err, sickErr) {
				t.Fatalf("second CheckpointNow: %v, want %v", err, sickErr)
			}
			if err := e.Close(); !errors.Is(err, sickErr) {
				t.Fatalf("Close: %v, want %v", err, sickErr)
			}
		})
	}
}

// dataFailDev fails every write past the image header once tripped, so a
// flush still invalidates the header before its first data write fails.
type dataFailDev struct {
	disk.Device
	trip *atomic.Bool
	err  error
}

func (d *dataFailDev) WriteAt(p []byte, off int64) (int, error) {
	if d.trip.Load() && off >= disk.HeaderSize {
		return 0, d.err
	}
	return d.Device.WriteAt(p, off)
}

// TestDegradedFlushAfterPruneRecovers: once the log is pruned, the first
// degraded flush invalidates the survivor's image, the only complete one
// left. When the survivor then fails too, neither backup holds an image and
// recovery rebuilds from the retained log alone — which must still give the
// exact state, though the ticks before the prune floor are gone from it.
// The anchor is cut into install records of 15 objects each here.
func TestDegradedFlushAfterPruneRecovers(t *testing.T) {
	defer func(old int) { anchorChunk = old }(anchorChunk)
	anchorChunk = 1000
	for _, mode := range checkpointingModes {
		t.Run(mode.String(), func(t *testing.T) {
			table := gamestate.Table{Rows: 256, Cols: 4, CellSize: 4, ObjSize: 64}
			sickErr := errors.New("disk: medium died")
			var trip atomic.Bool
			opts := Options{Table: table, Dir: t.TempDir(), Mode: mode, SyncEveryTick: true}
			faulty := opts
			faulty.DeviceFactory = func(path string) (disk.Device, error) {
				dev, err := disk.OpenFile(path)
				if err != nil {
					return nil, err
				}
				return &dataFailDev{Device: dev, trip: &trip, err: sickErr}, nil
			}
			e, err := Open(faulty)
			if err != nil {
				t.Fatal(err)
			}
			ref := newReference(table)
			// Each tick writes a cell no later tick touches, one per record
			// of the anchor, so a lost tick shows in the recovered state.
			for i := 0; i < 5; i++ {
				batch := []wal.Update{{Cell: uint32(i * 211), Value: uint32(i + 1)}}
				if err := e.ApplyTick(batch); err != nil {
					t.Fatal(err)
				}
				ref.apply(batch)
				if _, err := e.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
			segs, _ := filepath.Glob(filepath.Join(opts.Dir, "wal", "*.seg"))
			if len(segs) == 0 || strings.HasSuffix(segs[0], fmt.Sprintf("%020d.seg", 0)) {
				t.Fatalf("log segments %v: the prune never ran", segs)
			}
			trip.Store(true)
			batch := []wal.Update{{Cell: 200, Value: 7}}
			if err := e.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
			ref.apply(batch)
			if _, err := e.CheckpointNow(); !errors.Is(err, sickErr) {
				t.Fatalf("CheckpointNow with both backups failing: %v, want %v", err, sickErr)
			}
			// Crash: stop the writer and drop the engine without Close.
			e.cp.close() //nolint:errcheck
			e.log.Close()

			re, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Recovery().Restored {
				t.Fatal("recovery restored an image; both should be invalid")
			}
			if re.NextTick() != 6 || !ref.matches(re.Store()) {
				t.Fatalf("recovered to tick %d (want 6); state matches reference: %v", re.NextTick(), ref.matches(re.Store()))
			}
		})
	}
}

// TestDegradedCheckpointsNeverPrune holds the degrade rule's other half: no
// prune runs while degraded. Backup a dies at its first op, so every image
// lands on the survivor; then the survivor's next flush fails past its
// header, leaving no complete image anywhere. Recovery rebuilds from the log
// alone, which must still hold every tick since the start — a prune at any
// degraded checkpoint drops the first ticks and the anchor with them.
func TestDegradedCheckpointsNeverPrune(t *testing.T) {
	for _, mode := range checkpointingModes {
		t.Run(mode.String(), func(t *testing.T) {
			table := gamestate.Table{Rows: 256, Cols: 4, CellSize: 4, ObjSize: 64}
			sickErr := errors.New("disk: medium died")
			var trip atomic.Bool
			opts := Options{Table: table, Dir: t.TempDir(), Mode: mode, SyncEveryTick: true}
			faulty := opts
			faulty.DeviceFactory = func(path string) (disk.Device, error) {
				dev, err := disk.OpenFile(path)
				if err != nil {
					return nil, err
				}
				if strings.HasSuffix(path, "backup-a.img") {
					return disk.NewFault(dev, 0), nil
				}
				return &dataFailDev{Device: dev, trip: &trip, err: sickErr}, nil
			}
			e, err := Open(faulty)
			if err != nil {
				t.Fatal(err)
			}
			ref := newReference(table)
			// Each tick writes a cell no later tick touches, so a lost tick
			// shows in the recovered state.
			for i := 0; i < 6; i++ {
				batch := []wal.Update{{Cell: uint32(i * 97), Value: uint32(i + 1)}}
				if err := e.ApplyTick(batch); err != nil {
					t.Fatal(err)
				}
				ref.apply(batch)
				if _, err := e.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				if !e.CheckpointDegraded() {
					t.Fatal("backup a failed, but the checkpointer is not degraded")
				}
			}
			if n := len(e.Stats().Checkpoints); n < 3 {
				t.Fatalf("the survivor committed %d images, want several", n)
			}
			trip.Store(true)
			batch := []wal.Update{{Cell: 1000, Value: 7}}
			if err := e.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
			ref.apply(batch)
			if _, err := e.CheckpointNow(); !errors.Is(err, sickErr) {
				t.Fatalf("CheckpointNow with the survivor failing: %v, want %v", err, sickErr)
			}
			// Crash: stop the writer and drop the engine without Close.
			e.cp.close() //nolint:errcheck
			e.log.Close()

			for _, path := range []string{"Open", "RecoverFrom"} {
				var re *Engine
				if path == "Open" {
					re, err = Open(opts)
				} else {
					re, _, err = RecoverFrom(opts)
				}
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if re.Recovery().Restored {
					t.Errorf("%s restored an image; both should be invalid", path)
				}
				if re.NextTick() != 7 || !ref.matches(re.Store()) {
					t.Errorf("%s recovered to tick %d (want 7); state matches reference: %v", path, re.NextTick(), ref.matches(re.Store()))
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDegradeAnchorWaitsForLoggedTicks: with a logged cluster world's
// dispatch ahead of apply, the first degraded cut cannot log its anchor
// before the next tick's records. It holds the cut off with wal.ErrAhead
// and the engine keeps ticking; at the first tick end where the node has
// caught up with its log the anchor goes in, in chunks, ahead of the next
// tick's head, and recovery replays through it to the exact state.
func TestDegradeAnchorWaitsForLoggedTicks(t *testing.T) {
	defer func(old int) { anchorChunk = old }(anchorChunk)
	anchorChunk = 1000 // 15 objects a record
	table := gamestate.Table{Rows: 256, Cols: 4, CellSize: 4, ObjSize: 64}
	var trip atomic.Bool
	opts := Options{Table: table, Dir: t.TempDir(), Mode: ModeCopyOnUpdate, SyncEveryTick: true}
	faulty := opts
	faulty.DeviceFactory = func(path string) (disk.Device, error) {
		dev, err := disk.OpenFile(path)
		if err == nil && strings.HasSuffix(path, "backup-a.img") {
			return &flakyDev{Device: dev, trip: &trip, err: errors.New("disk: medium died")}, nil
		}
		return dev, err
	}
	e, err := Open(faulty)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(table)
	envs := func(tick uint64) []Envelope {
		return []Envelope{{Origin: -1, Updates: []wal.Update{{Cell: uint32(tick*211) % uint32(table.NumCells()), Value: uint32(tick + 1)}}}}
	}
	apply := func(tick uint64) {
		t.Helper()
		if err := e.ApplyTickEnvelopes(envs(tick)); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		ref.apply(envs(tick)[0].Updates)
	}
	const ahead, held = 3, 8
	for tick := uint64(0); tick < ahead; tick++ {
		if err := e.LogTickEnvelopes(tick, envs(tick)); err != nil {
			t.Fatal(err)
		}
	}
	trip.Store(true)
	for tick := uint64(0); tick < held; tick++ {
		if err := e.LogTickEnvelopes(tick+ahead, envs(tick+ahead)); err != nil {
			t.Fatal(err)
		}
		apply(tick)
		if _, err := e.CheckpointNow(); !errors.Is(err, wal.ErrAhead) {
			t.Fatalf("tick %d: degraded cut with the log ahead returned %v, want wal.ErrAhead", tick, err)
		}
	}
	if !e.CheckpointDegraded() || e.cp.err() != nil {
		t.Fatalf("degraded %v, writer error %v: want degraded and alive", e.CheckpointDegraded(), e.cp.err())
	}
	for tick := uint64(held); tick < held+ahead; tick++ {
		apply(tick)
	}
	const anchorTick = held + ahead // the first tick the log does not hold
	if info, err := e.CheckpointNow(); err != nil || info.AsOfTick != anchorTick-1 {
		t.Fatalf("caught-up degraded cut: %+v, %v", info, err)
	}
	if err := e.LogTickEnvelopes(anchorTick, envs(anchorTick)); err != nil {
		t.Fatal(err)
	}
	apply(anchorTick)
	// Crash: stop the writer and drop the engine without Close.
	e.cp.close() //nolint:errcheck
	e.log.Close()

	r, err := wal.NewReader(filepath.Join(opts.Dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	installs, heads := 0, 0
	for {
		tick, body, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tickRecords(body); ok {
			heads++
		} else if body[0] == recInstall && (tick != anchorTick || heads != anchorTick) {
			t.Fatalf("install record at tick %d after %d heads, want at tick %d before its head", tick, heads, anchorTick)
		} else if body[0] == recInstall {
			installs++
		}
	}
	r.Close()
	if want := (table.NumObjects() + 14) / 15; installs != want || heads != anchorTick+1 {
		t.Fatalf("log holds %d install records and %d heads, want %d and %d", installs, heads, want, anchorTick+1)
	}
	if end, err := LoggedEnd(opts.Dir, 0); err != nil || end != anchorTick+1 {
		t.Fatalf("log ends at %d (%v), want %d", end, err, anchorTick+1)
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NextTick() != anchorTick+1 || !ref.matches(re.Store()) {
		t.Fatalf("recovered to tick %d (want %d); state matches reference: %v", re.NextTick(), anchorTick+1, ref.matches(re.Store()))
	}
}
