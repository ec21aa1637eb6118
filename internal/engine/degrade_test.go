package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
	"repro/internal/gamestate"
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
