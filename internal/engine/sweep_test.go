package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// The sweep's workload: sweepTicks ticks of sweepUpdates random updates
// each, a CheckpointNow every sweepEvery ticks, over 512 objects of 16
// bytes, so 8 shards own a bitmap word each and an image is a few runs.
const (
	sweepTicks   = 9
	sweepEvery   = 3
	sweepUpdates = 4
	// sweepMaxOps bounds the sweep; no run of this workload reaches it.
	sweepMaxOps = 2000
)

func sweepTable() gamestate.Table {
	return gamestate.Table{Rows: 512, Cols: 4, CellSize: 4, ObjSize: 16}
}

// TestImageOpSweep enumerates every crash point of the double-backup
// commit instead of sampling a few. For k = 0, 1, 2, … it runs the same
// workload with op k — the k-th WriteAt or Sync to reach a backup device —
// as the first to fail (a failing write lands half its buffer, and every
// later op fails), then recovers the directory with healthy devices. It
// stops at the first k whose run ends without the fault firing; the number
// of ops is not known up front, since endTick starts a flush whenever none
// is in flight and so the number of images depends on the writer's pace.
// Two shapes:
//
//   - degrade: only backup A faults. ApplyTick, CheckpointNow and Close
//     never fail, and the engine reports degraded exactly when the fault
//     fired.
//   - crash: both backups draw on one budget, so the survivor dies at its
//     next op too; the engine is abandoned at its first error, the way
//     crashRun leaves it.
//
// Either way recovery lands byte-identical to the serial reference at the
// tick the engine reached, and never on an epoch-0 image. A failure names
// the op index; -run with the subtest's name replays it.
func TestImageOpSweep(t *testing.T) {
	shardCounts := []int{1, 2, 8}
	if testing.Short() {
		shardCounts = shardCounts[:1]
	}
	rng := rand.New(rand.NewSource(7))
	batches := make([][]wal.Update, sweepTicks)
	refs := []*reference{newReference(sweepTable())} // refs[n]: the state after n ticks
	for i := range batches {
		batches[i] = randomBatch(rng, sweepTable().NumCells(), sweepUpdates)
		next := &reference{cells: append([]uint32(nil), refs[i].cells...)}
		next.apply(batches[i])
		refs = append(refs, next)
	}
	total := 0
	for _, mode := range checkpointingModes {
		for _, shards := range shardCounts {
			for _, crash := range []bool{false, true} {
				shape := "degrade"
				if crash {
					shape = "crash"
				}
				t.Run(fmt.Sprintf("%v/shards=%d/%s", mode, shards, shape), func(t *testing.T) {
					dir := t.TempDir()
					k := 0
					for ; sweepRun(t, filepath.Join(dir, fmt.Sprint(k)), mode, shards, crash, k, batches, refs); k++ {
						if k == sweepMaxOps {
							t.Fatalf("the fault still fires at op %d", k)
						}
					}
					t.Logf("%d op indices", k+1)
					total += k + 1
				})
			}
		}
	}
	t.Logf("%d runs", total)
}

// sweepRun runs the sweep's workload with op k as the first to fail and
// checks the recovered directory. It reports whether the fault fired.
func sweepRun(t *testing.T, dir string, mode Mode, shards int, crash bool, k int, batches [][]wal.Update, refs []*reference) bool {
	t.Helper()
	defer os.RemoveAll(dir)
	opts := Options{Table: sweepTable(), Dir: dir, Mode: mode, Shards: shards}
	var fault *disk.Fault
	faulty := opts
	faulty.DeviceFactory = func(path string) (disk.Device, error) {
		d, err := disk.OpenFile(path)
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasSuffix(path, "backup-a.img"):
			fault = disk.NewFault(d, k)
			return fault, nil
		case crash:
			return fault.Share(d), nil
		}
		return d, nil
	}
	e, err := Open(faulty)
	if err != nil {
		t.Fatalf("op %d: open: %v", k, err)
	}
	applied := 0
	for _, batch := range batches {
		err := e.ApplyTick(batch)
		if err == nil {
			applied++
			if applied%sweepEvery == 0 {
				_, err = e.CheckpointNow()
			}
		}
		if err != nil && !crash {
			t.Fatalf("op %d: degraded engine failed after %d ticks: %v", k, applied, err)
		}
		if err != nil {
			break
		}
	}
	// The writer is idle here: the loop ends on CheckpointNow or on an
	// error that stopped it.
	fired := fault.Fired()
	if crash {
		e.cp.close() //nolint:errcheck // the crash: the writer's error is the point
		e.log.Close()
	} else {
		if e.CheckpointDegraded() != fired {
			t.Fatalf("op %d: engine reports degraded=%v, fault fired=%v", k, e.CheckpointDegraded(), fired)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("op %d: close degraded engine: %v", k, err)
		}
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatalf("op %d: recover: %v", k, err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Restored && rec.Epoch == 0 {
		t.Fatalf("op %d: restored an epoch-0 image, which no checkpoint writes", k)
	}
	if re.NextTick() != uint64(applied) {
		t.Fatalf("op %d: recovered to tick %d, want %d", k, re.NextTick(), applied)
	}
	if !refs[applied].matches(re.Store()) {
		t.Fatalf("op %d: recovered state differs from the serial reference at tick %d", k, applied)
	}
	return fired
}
