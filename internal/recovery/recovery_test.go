package recovery

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/wal"
)

const (
	nObj    = 8
	objSize = 64
)

func mkBackup(t *testing.T) *disk.Backup {
	t.Helper()
	b, err := disk.NewBackup(disk.NewMem(), nObj, objSize)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fillImage(t *testing.T, b *disk.Backup, fill byte, h disk.Header) {
	t.Helper()
	data := bytes.Repeat([]byte{fill}, nObj*objSize)
	if err := b.WriteRun(0, data); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
}

func TestChooseBackupPicksNewestComplete(t *testing.T) {
	a, b := mkBackup(t), mkBackup(t)
	fillImage(t, a, 1, disk.Header{Epoch: 3, AsOfTick: 30, Complete: true})
	fillImage(t, b, 2, disk.Header{Epoch: 4, AsOfTick: 40, Complete: true})
	idx, h, _, err := chooseBackup(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || h.Epoch != 4 {
		t.Errorf("chose %d epoch %d, want backup 1 epoch 4", idx, h.Epoch)
	}
}

func TestChooseBackupSkipsIncomplete(t *testing.T) {
	a, b := mkBackup(t), mkBackup(t)
	fillImage(t, a, 1, disk.Header{Epoch: 3, AsOfTick: 30, Complete: true})
	fillImage(t, b, 2, disk.Header{Epoch: 4, AsOfTick: 40, Complete: false}) // torn
	idx, h, _, err := chooseBackup(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 || h.Epoch != 3 {
		t.Errorf("chose %d epoch %d, want backup 0 epoch 3", idx, h.Epoch)
	}
}

func TestChooseBackupNone(t *testing.T) {
	idx, _, _, err := chooseBackup(mkBackup(t), mkBackup(t))
	if err != nil {
		t.Fatal(err)
	}
	if idx != -1 {
		t.Errorf("fresh backups chose %d, want -1", idx)
	}
}

// restoreOnly runs RecoverParallel without a log over one range, the whole
// object space.
func restoreOnly(a, b *disk.Backup, slab []byte) (ParallelResult, error) {
	return RecoverParallel(ParallelOptions{A: a, B: b, Slab: slab, Ranges: evenRanges(a.Objects(), 1)})
}

func TestRestoreLoadsImage(t *testing.T) {
	a, b := mkBackup(t), mkBackup(t)
	fillImage(t, a, 0xAA, disk.Header{Epoch: 9, AsOfTick: 99, Complete: true})
	slab := make([]byte, nObj*objSize)
	res, err := restoreOnly(a, b, slab)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored || res.Epoch != 9 || res.AsOfTick != 99 || res.NextTick != 100 {
		t.Errorf("restore result: %+v", res.Result)
	}
	for i, v := range slab {
		if v != 0xAA {
			t.Fatalf("slab[%d] = %#x", i, v)
		}
	}
}

func TestRestoreZeroesWithoutImage(t *testing.T) {
	slab := bytes.Repeat([]byte{0xFF}, nObj*objSize)
	res, err := restoreOnly(mkBackup(t), mkBackup(t), slab)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored {
		t.Error("claimed restore from empty backups")
	}
	for i, v := range slab {
		if v != 0 {
			t.Fatalf("slab[%d] = %#x, want zeroed", i, v)
		}
	}
}

func TestRunRestoresAndReplays(t *testing.T) {
	a, b := mkBackup(t), mkBackup(t)
	// Image consistent as of tick 10 with cell pattern 0x07070707.
	fillImage(t, a, 0x07, disk.Header{Epoch: 2, AsOfTick: 10, Complete: true})

	dir := t.TempDir()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	// Ticks 5..14 logged; only 11..14 must replay.
	for tick := uint64(5); tick < 15; tick++ {
		payload := wal.EncodeUpdates(nil, []wal.Update{
			{Cell: uint32(tick % 16), Value: uint32(tick)},
		})
		if err := log.Append(tick, payload); err != nil {
			t.Fatal(err)
		}
	}

	slab := make([]byte, nObj*objSize)
	cells := make(map[uint32]uint32)
	res, err := replayUpdates(a, b, slab, log, func(_ uint64, u wal.Update) { cells[u.Cell] = u.Value })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored || res.AsOfTick != 10 {
		t.Errorf("result: %+v", res.Result)
	}
	if res.ReplayedTicks != 4 || res.ReplayedUpdates != 4 {
		t.Errorf("replayed %d ticks / %d updates, want 4/4", res.ReplayedTicks, res.ReplayedUpdates)
	}
	if res.NextTick != 15 {
		t.Errorf("NextTick = %d, want 15", res.NextTick)
	}
	for tick := uint64(11); tick < 15; tick++ {
		if cells[uint32(tick%16)] != uint32(tick) {
			t.Errorf("tick %d update missing", tick)
		}
	}
	if _, ok := cells[5%16]; ok && cells[5] == 5 {
		t.Error("replayed a tick covered by the image")
	}
}

func TestRunFreshStateReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for tick := uint64(0); tick < 7; tick++ {
		if err := log.Append(tick, wal.EncodeUpdates(nil, []wal.Update{{Cell: 0, Value: uint32(tick)}})); err != nil {
			t.Fatal(err)
		}
	}
	slab := make([]byte, nObj*objSize)
	var ticksSeen []uint64
	res, err := replayUpdates(mkBackup(t), mkBackup(t), slab, log, func(tick uint64, _ wal.Update) {
		ticksSeen = append(ticksSeen, tick)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored {
		t.Error("restored from nothing")
	}
	if res.ReplayedTicks != 7 || len(ticksSeen) != 7 {
		t.Errorf("replayed %d ticks, onTick saw %d", res.ReplayedTicks, len(ticksSeen))
	}
	if res.NextTick != 7 {
		t.Errorf("NextTick = %d, want 7", res.NextTick)
	}
}

func TestRunRejectsCorruptBatch(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append(0, []byte{0xFF, 0xFF}); err != nil { // not a valid batch
		t.Fatal(err)
	}
	slab := make([]byte, nObj*objSize)
	if _, err := replayUpdates(mkBackup(t), mkBackup(t), slab, log, func(uint64, wal.Update) {}); err == nil {
		t.Error("corrupt batch accepted")
	}
}

// replayUpdates recovers a log of plain update batches through RecoverParallel
// over one range, the whole object space, handing every replayed update to
// apply in log order with its tick.
func replayUpdates(a, b *disk.Backup, slab []byte, log *wal.Log, apply func(tick uint64, u wal.Update)) (ParallelResult, error) {
	o := updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(a.Objects(), 1)})
	o.ApplyUpdates = func(_ int, tick uint64, updates []wal.Update) {
		for _, u := range updates {
			apply(tick, u)
		}
	}
	return RecoverParallel(o)
}
