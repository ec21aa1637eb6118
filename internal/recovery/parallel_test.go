package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Parallel-test geometry: 64 objects of 64 bytes (16 cells each).
const (
	pObj     = 64
	pObjSize = 64
	pCells   = pObj * pObjSize / 4
)

// applyBatch decodes an update batch and writes every update into slab.
func applyBatch(slab []byte, payload []byte) error {
	updates, err := wal.DecodeUpdates(nil, payload)
	for _, u := range updates {
		binary.LittleEndian.PutUint32(slab[u.Cell*4:], u.Value)
	}
	return err
}

// buildWorkload writes an image consistent as of asOf into a and a log of
// [0, ticks) update batches, returning the log, the image and the records
// it logged.
func buildWorkload(t *testing.T, a *disk.Backup, dir string, asOf uint64, ticks int, seed int64) (*wal.Log, []byte, []record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, pObj*pObjSize)
	rng.Read(img)
	if err := a.WriteRun(0, img); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteHeader(disk.Header{Epoch: 5, AsOfTick: asOf, Complete: true}); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	for tick := uint64(0); tick < uint64(ticks); tick++ {
		var batch []wal.Update
		for i := 0; i < 20; i++ {
			batch = append(batch, wal.Update{Cell: uint32(rng.Intn(pCells)), Value: rng.Uint32()})
		}
		payload := wal.EncodeUpdates(nil, batch)
		if err := log.Append(tick, payload); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record{tick, payload})
	}
	return log, img, recs
}

// applyFrom is the in-memory reference of a recovery whose image floor is
// from: img with every record at or above from applied in log order.
func applyFrom(t *testing.T, img []byte, recs []record, from uint64) []byte {
	t.Helper()
	slab := bytes.Clone(img)
	for _, rec := range recs {
		if rec.tick < from {
			continue
		}
		if err := applyBatch(slab, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	return slab
}

func pBackup(t *testing.T, dev disk.Device) *disk.Backup {
	t.Helper()
	b, err := disk.NewBackup(dev, pObj, pObjSize)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverParallelMatchesSerial: at any shard count the pipeline reaches
// the serial reference — the image the test wrote with every logged batch
// above its floor applied in order — and counts exactly those ticks and
// updates.
func TestRecoverParallelMatchesSerial(t *testing.T) {
	const asOf, ticks, perTick = 10, 40, 20
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	log, img, recs := buildWorkload(t, a, t.TempDir(), asOf, ticks, 7)
	defer log.Close()
	want := applyFrom(t, img, recs, asOf+1)

	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			slab := bytes.Repeat([]byte{0xFF}, pObj*pObjSize)
			res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, shards)}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(slab, want) {
				t.Fatal("parallel recovery slab differs from the serial reference")
			}
			const replayed = ticks - asOf - 1
			if !res.Restored || res.AsOfTick != asOf || res.NextTick != ticks ||
				res.ReplayedTicks != replayed || res.ReplayedUpdates != replayed*perTick {
				t.Errorf("result %+v, want image as of %d, next tick %d, %d ticks and %d updates replayed",
					res.Result, asOf, ticks, replayed, replayed*perTick)
			}
			if len(res.Shards) == 0 || res.TotalDuration <= 0 {
				t.Errorf("missing pipeline timings: %+v", res)
			}
			var records int
			for _, st := range res.Shards {
				records += st.Records
			}
			if records != shards*res.ReplayedTicks {
				t.Errorf("workers saw %d records, want %d (each of %d shards sees every record)",
					records, shards*res.ReplayedTicks, shards)
			}
		})
	}
}

// evenRanges splits n objects into at most shards equal contiguous ranges.
func evenRanges(n, shards int) []ShardRange {
	per := (n + shards - 1) / shards
	var ranges []ShardRange
	for lo := 0; lo < n; lo += per {
		ranges = append(ranges, ShardRange{lo, min(lo+per, n)})
	}
	return ranges
}

// updateLog completes o (A, Slab and Ranges set) for a log of plain update
// batches: every shard's Apply decodes the whole record and writes the
// updates inside its range, counting them.
func updateLog(o ParallelOptions) ParallelOptions {
	return recordsTo(o, func(_ uint64, u wal.Update) {
		binary.LittleEndian.PutUint32(o.Slab[u.Cell*4:], u.Value)
	})
}

// recordsTo completes o for a log of plain update batches as updateLog does,
// handing each shard's updates to apply instead, in the shard's replay order.
// A record that does not decode is refused whole, naming its tick.
func recordsTo(o ParallelOptions, apply func(tick uint64, u wal.Update)) ParallelOptions {
	cellsPerObj := o.A.ObjSize() / 4
	scratch := make([][]wal.Update, len(o.Ranges))
	return perRecord(o, func(shard int, tick uint64, payload []byte) (int64, error) {
		var err error
		if scratch[shard], err = wal.DecodeUpdates(scratch[shard][:0], payload); err != nil {
			return 0, fmt.Errorf("record at tick %d: %w", tick, err)
		}
		lo, hi := uint32(o.Ranges[shard].Lo*cellsPerObj), uint32(o.Ranges[shard].Hi*cellsPerObj)
		var n int64
		for _, u := range scratch[shard] {
			if u.Cell >= lo && u.Cell < hi {
				apply(tick, u)
				n++
			}
		}
		return n, nil
	})
}

// perRecord completes o with a Replay that restores the shard's whole range,
// then hands apply the window's records one at a time, stopping at the first
// it refuses.
func perRecord(o ParallelOptions, apply func(shard int, tick uint64, payload []byte) (int64, error)) ParallelOptions {
	o.Replay = func(shard int, window []Record, restore *Restorer) (int, int64, error) {
		var n int64
		if err := restore.To(o.Ranges[shard].Hi); err != nil {
			return 0, 0, err
		}
		for i, rec := range window {
			m, err := apply(shard, rec.Tick, rec.Payload)
			if n += m; err != nil {
				return i, n, err
			}
		}
		return len(window), n, nil
	}
	return o
}

func TestRecoverParallelNoImageReplaysEverything(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	dir := t.TempDir()
	log, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for tick := uint64(0); tick < 9; tick++ {
		payload := wal.EncodeUpdates(nil, []wal.Update{{Cell: uint32(tick * 16), Value: uint32(tick + 1)}})
		if err := log.Append(tick, payload); err != nil {
			t.Fatal(err)
		}
	}
	slab := bytes.Repeat([]byte{0xEE}, pObj*pObjSize)
	res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 4)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored || res.BackupIndex != -1 {
		t.Errorf("restored from empty backups: %+v", res.Result)
	}
	if res.ReplayedTicks != 9 || res.NextTick != 9 || res.ReplayedUpdates != 9 {
		t.Errorf("replay counts: %+v", res.Result)
	}
	for tick := uint64(0); tick < 9; tick++ {
		if got := slab[tick*16*4]; got != byte(tick+1) {
			t.Errorf("tick %d update missing (cell byte %d)", tick, got)
		}
	}
	// Unlogged regions must be zeroed, not left with stale bytes.
	if slab[len(slab)-1] != 0 {
		t.Error("slab tail not zeroed on no-image recovery")
	}
}

func TestRecoverParallelRestoreOnly(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	want := make([]byte, pObj*pObjSize)
	rand.New(rand.NewSource(9)).Read(want)
	if err := a.WriteRun(0, want); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteHeader(disk.Header{Epoch: 3, AsOfTick: 17, Complete: true}); err != nil {
		t.Fatal(err)
	}
	slab := make([]byte, pObj*pObjSize)
	res, err := RecoverParallel(ParallelOptions{A: a, B: b, Slab: slab, Ranges: evenRanges(pObj, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slab, want) {
		t.Fatal("restore-only slab mismatch")
	}
	if !res.Restored || res.NextTick != 18 || res.RestoreDuration <= 0 {
		t.Errorf("result: %+v", res)
	}
	if res.ReplayDuration != 0 {
		t.Errorf("replay duration %v without a log", res.ReplayDuration)
	}
}

func TestRecoverParallelValidatesGeometry(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	if _, err := RecoverParallel(ParallelOptions{A: a, B: b, Slab: make([]byte, 7)}); err == nil {
		t.Error("short slab accepted")
	}
	slab := make([]byte, pObj*pObjSize)
	if _, err := RecoverParallel(ParallelOptions{
		A: a, B: b, Slab: slab,
		Ranges: []ShardRange{{0, 10}, {20, pObj}}, // gap
	}); err == nil {
		t.Error("gapped ranges accepted")
	}
	if _, err := RecoverParallel(ParallelOptions{
		A: a, B: b, Slab: slab,
		Ranges: []ShardRange{{0, pObj - 1}}, // short
	}); err == nil {
		t.Error("short ranges accepted")
	}
	log, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := RecoverParallel(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 1)}); err == nil {
		t.Error("log without Replay accepted")
	}
	if _, err := RecoverParallel(ParallelOptions{A: a, B: b, Slab: slab, Ranges: evenRanges(pObj, 1), Extra: &records{}}); err == nil {
		t.Error("extra source without a log accepted")
	}
}

func TestRecoverParallelApplyErrorPropagates(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	log, _, _ := buildWorkload(t, a, t.TempDir(), 2, 10, 11)
	defer log.Close()
	sentinel := errors.New("boom")
	slab := make([]byte, pObj*pObjSize)
	_, err := RecoverParallel(perRecord(ParallelOptions{
		A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 4),
	}, func(shard int, tick uint64, payload []byte) (int64, error) {
		if shard == 2 && tick == 7 {
			return 0, sentinel
		}
		return 0, nil
	}))
	if !errors.Is(err, sentinel) {
		t.Errorf("apply error not propagated: %v", err)
	}
}

// TestRecoverParallelStagesAddUpAtOneShard: each stage is timed as the time
// spent in it, so at one shard, where restore and replay take turns on one
// goroutine, they add up to the pipeline and never past it. The restore is
// throttled to about 40 ms, most of the pipeline.
func TestRecoverParallelStagesAddUpAtOneShard(t *testing.T) {
	dev := disk.NewThrottle(disk.NewMem(), 1e5)
	a, b := pBackup(t, dev), pBackup(t, disk.NewMem())
	log, _, _ := buildWorkload(t, a, t.TempDir(), 0, 60, 13)
	defer log.Close()
	slab := make([]byte, pObj*pObjSize)
	res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	sum := res.RestoreDuration + res.ReplayDuration
	if res.RestoreDuration <= 0 || res.ReplayDuration <= 0 || sum > res.TotalDuration || sum < res.TotalDuration/2 {
		t.Errorf("restore %v + replay %v do not add up to the pipeline's %v",
			res.RestoreDuration, res.ReplayDuration, res.TotalDuration)
	}
	if res.Overlap() != 0 {
		t.Errorf("overlap %v at one shard", res.Overlap())
	}
}

func TestChooseBackupDegradesToReadableBackup(t *testing.T) {
	// Backup 1 holds the newer image but its medium fails on read; recovery
	// must degrade to backup 0's older complete image instead of aborting.
	goodDev := disk.NewMem()
	good := pBackup(t, goodDev)
	img := bytes.Repeat([]byte{0x11}, pObj*pObjSize)
	if err := good.WriteRun(0, img); err != nil {
		t.Fatal(err)
	}
	if err := good.WriteHeader(disk.Header{Epoch: 3, AsOfTick: 30, Complete: true}); err != nil {
		t.Fatal(err)
	}
	badDev := disk.NewMem()
	seed := pBackup(t, badDev)
	if err := seed.WriteHeader(disk.Header{Epoch: 9, AsOfTick: 90, Complete: true}); err != nil {
		t.Fatal(err)
	}
	bad := pBackup(t, disk.NewReadFault(badDev))

	idx, h, _, err := chooseBackup(good, bad)
	if err != nil {
		t.Fatalf("degraded choose errored: %v", err)
	}
	if idx != 0 || h.Epoch != 3 {
		t.Errorf("chose %d epoch %d, want backup 0 epoch 3", idx, h.Epoch)
	}
	// Order must not matter.
	idx, h, _, err = chooseBackup(bad, good)
	if err != nil || idx != 1 || h.Epoch != 3 {
		t.Errorf("reversed: idx=%d epoch=%d err=%v, want backup 1 epoch 3", idx, h.Epoch, err)
	}

	// Restore through the degraded pair works end to end.
	slab := make([]byte, pObj*pObjSize)
	res, err := RecoverParallel(ParallelOptions{A: good, B: bad, Slab: slab, Ranges: evenRanges(pObj, 1)})
	if err != nil {
		t.Fatalf("degraded restore: %v", err)
	}
	if !res.Restored || res.BackupIndex != 0 || !bytes.Equal(slab, img) {
		t.Errorf("degraded restore result %+v", res.Result)
	}
}

func TestChooseBackupFailsWhenBothUnusable(t *testing.T) {
	// One backup errors and the other holds no complete image: recovering
	// into an empty state would discard whatever the broken backup held, so
	// this must be an error, not a silent cold start.
	badDev := disk.NewMem()
	if err := pBackup(t, badDev).WriteHeader(disk.Header{Epoch: 2, Complete: true}); err != nil {
		t.Fatal(err)
	}
	bad := pBackup(t, disk.NewReadFault(badDev))
	fresh := pBackup(t, disk.NewMem())
	if _, _, _, err := chooseBackup(bad, fresh); !errors.Is(err, disk.ErrFaultInjected) {
		t.Errorf("both-unusable choose = %v, want wrapped ErrFaultInjected", err)
	}
	// Two erroring backups: still an error.
	if _, _, _, err := chooseBackup(bad, bad); err == nil {
		t.Error("two faulted backups chosen silently")
	}
}

// unskippedLogStats reads every segment of dir, as a recovery that skips
// nothing would, and returns what it must report about the log's end.
func unskippedLogStats(t *testing.T, dir string) (last uint64, saw bool, lastRecs int) {
	t.Helper()
	r, err := wal.NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		tick, _, err := r.Next()
		if err == io.EOF {
			return last, saw, lastRecs
		}
		if err != nil {
			t.Fatal(err)
		}
		if !saw || tick > last {
			last, saw, lastRecs = tick, true, 0
		}
		lastRecs++
	}
}

// TestRecoverParallelSkipsStaleSegments: the pipeline starts at the first
// segment that can hold a record the image does not cover, and still
// reports the log's last tick exactly as an unskipped read would — also
// when every segment it kept is empty and the last tick sits in a skipped
// one. The replay span says what was read.
func TestRecoverParallelSkipsStaleSegments(t *testing.T) {
	const asOf = 19 // image covers ticks 0..19: replay starts at 20
	for _, tc := range []struct {
		name string
		// tail lists the ticks appended after the rotation at asOf+1.
		tail        []uint64
		emptyRotate bool // seal the (empty) segment asOf+1 too
		wantSkipped int64
	}{
		{name: "tail", tail: []uint64{20, 21, 22, 22}, wantSkipped: 1},
		{name: "kept segment empty"},
		{name: "kept segments empty", emptyRotate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
			dir := t.TempDir()
			log, img, _ := buildWorkload(t, a, dir, asOf, asOf+1, 11)
			defer log.Close()
			if err := log.Append(asOf, wal.EncodeUpdates(nil, nil)); err != nil { // two records at the stale segment's last tick
				t.Fatal(err)
			}
			if err := log.Rotate(asOf + 1); err != nil {
				t.Fatal(err)
			}
			if tc.emptyRotate {
				if err := log.Rotate(asOf + 5); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(3))
			var tail []record
			for _, tick := range tc.tail {
				batch := []wal.Update{{Cell: uint32(rng.Intn(pCells)), Value: rng.Uint32()}}
				tail = append(tail, record{tick, wal.EncodeUpdates(nil, batch)})
				if err := log.Append(tick, tail[len(tail)-1].payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Flush(); err != nil {
				t.Fatal(err)
			}
			wantLast, wantSaw, wantRecs := unskippedLogStats(t, dir)

			want := applyFrom(t, img, tail, asOf+1)

			telemetry.Enable()
			defer telemetry.Disable()
			telemetry.ResetSpans()
			slab := make([]byte, pObj*pObjSize)
			res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 2)}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(slab, want) {
				t.Error("recovery that skips the stale segment differs from the image plus the tail")
			}
			if res.LastLogTick != wantLast || res.SawLogTick != wantSaw || res.LastTickRecords != wantRecs {
				t.Errorf("log end (%d, %v, %d records), an unskipped read reports (%d, %v, %d)",
					res.LastLogTick, res.SawLogTick, res.LastTickRecords, wantLast, wantSaw, wantRecs)
			}
			if want := len(tc.tail); int(res.Shards[0].Records) != want {
				t.Errorf("shard 0 applied %d records, want %d", res.Shards[0].Records, want)
			}
			if tc.wantSkipped == 0 {
				return // nothing applied: no replay span
			}
			for _, sp := range telemetry.Spans() {
				if sp.Name != "recovery/replay" {
					continue
				}
				attrs := map[string]int64{}
				for _, at := range sp.Attrs {
					attrs[at.Key] = at.Int
				}
				info, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", asOf+1)))
				if err != nil {
					t.Fatal(err)
				}
				if attrs["segments_skipped"] != tc.wantSkipped || attrs["log_bytes"] != info.Size() {
					t.Errorf("replay span says %d segments skipped, %d log bytes; want %d and %d",
						attrs["segments_skipped"], attrs["log_bytes"], tc.wantSkipped, info.Size())
				}
				return
			}
			t.Error("no recovery/replay span recorded")
		})
	}
}

// TestRecoverParallelStopsAtUndecodableRecord: a record in the middle of the
// log whose frame is intact but whose batch does not decode fails the
// recovery with an error naming its tick, and every shard's slab range is
// left exactly as the records before it made it — nothing from the bad
// record, nothing from the good ones behind it.
func TestRecoverParallelStopsAtUndecodableRecord(t *testing.T) {
	const asOf, badTick = 10, 25
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	log, img, recs := buildWorkload(t, a, t.TempDir(), asOf, badTick, 17)
	defer log.Close()
	good := wal.EncodeUpdates(nil, []wal.Update{{Cell: 5, Value: 0xBAD}, {Cell: pCells - 1, Value: 0xBAD}})
	if err := log.Append(badTick, good[:len(good)-3]); err != nil { // claims two updates, holds one and a half
		t.Fatal(err)
	}
	for tick := uint64(badTick + 1); tick < badTick+20; tick++ {
		if err := log.Append(tick, good); err != nil {
			t.Fatal(err)
		}
	}
	// Recovery stops at the bad record: the reference is the image with the
	// records before it applied.
	want := applyFrom(t, img, recs, asOf+1)
	for _, shards := range []int{1, 2, 8} {
		slab := bytes.Repeat([]byte{0xFF}, pObj*pObjSize)
		res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, shards)}))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tick %d", badTick)) {
			t.Fatalf("shards %d: error %v does not name tick %d", shards, err, badTick)
		}
		if !bytes.Equal(slab, want) {
			t.Errorf("shards %d: slab is not the state as of the record before the undecodable one", shards)
		}
		for _, st := range res.Shards {
			if st.Records != badTick-asOf-1 {
				t.Errorf("shards %d: shard %d applied %d records, want the %d before tick %d",
					shards, st.Shard, st.Records, badTick-asOf-1, badTick)
			}
		}
	}
}

// TestRecoverParallelWindowAccounting: the reader hands the shards a window
// each time its records reach the budget, and one for the rest, and says how
// many windows it read, and where the replay stage's time went, in the
// result and on the recovery/replay span.
func TestRecoverParallelWindowAccounting(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	log, img, recs := buildWorkload(t, a, t.TempDir(), 0, 2000, 23)
	defer log.Close()
	want := applyFrom(t, img, recs, 1)
	defer func(b int) { windowBudget = b }(windowBudget)
	windowBudget = 20 << 10
	full, rest := 0, 0 // the windows the budget closes, and the bytes left
	for _, rec := range recs[1:] {
		if rest += len(rec.payload); rest >= windowBudget {
			full, rest = full+1, 0
		}
	}
	wantWindows := full
	if rest > 0 {
		wantWindows++
	}
	telemetry.Enable()
	defer telemetry.Disable()
	for _, shards := range []int{1, 2, 8} {
		telemetry.ResetSpans()
		slab := make([]byte, pObj*pObjSize)
		res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, shards)}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(slab, want) {
			t.Errorf("shards %d: windowed replay differs from the serial reference", shards)
		}
		if res.Windows != wantWindows || wantWindows < 3 {
			t.Errorf("shards %d: %d windows over %d records, want %d", shards, res.Windows, res.ReplayedTicks, wantWindows)
		}
		if res.ApplyBusy <= 0 {
			t.Errorf("shards %d: apply busy %v", shards, res.ApplyBusy)
		}
		slowest, fastest := res.Shards[0].Replay, res.Shards[0].Replay
		for _, st := range res.Shards {
			slowest, fastest = max(slowest, st.Replay), min(fastest, st.Replay)
		}
		if res.ReadDuration <= 0 || res.ReplayDuration != res.ReadDuration+slowest {
			t.Errorf("shards %d: replay %v is not the read %v plus the slowest shard's %v",
				shards, res.ReplayDuration, res.ReadDuration, slowest)
		}
		for _, sp := range telemetry.Spans() {
			if sp.Name != "recovery/replay" {
				continue
			}
			attrs := map[string]int64{}
			for _, at := range sp.Attrs {
				attrs[at.Key] = at.Int
			}
			if attrs["apply_ns"] != int64(res.ApplyBusy) || attrs["windows"] != int64(res.Windows) {
				t.Errorf("shards %d: replay span %v disagrees with the result (%v, %d)",
					shards, attrs, res.ApplyBusy, res.Windows)
			}
			if attrs["read_ns"] != int64(res.ReadDuration) || attrs["shard_replay_max_ns"] != int64(slowest) ||
				attrs["shard_replay_min_ns"] != int64(fastest) {
				t.Errorf("shards %d: replay span %v disagrees with the read %v and the shards' replay %v..%v",
					shards, attrs, res.ReadDuration, fastest, slowest)
			}
		}
	}
}

// TestOverlapNeverNegative: with an instant restore the stages do not
// overlap at all and rounding put the old difference below zero.
func TestOverlapNeverNegative(t *testing.T) {
	r := ParallelResult{Result: Result{RestoreDuration: 8, ReplayDuration: 90}, TotalDuration: 100}
	if got := r.Overlap(); got != 0 {
		t.Errorf("overlap %v for stages that sum below the total, want 0", got)
	}
	r.TotalDuration = 95
	if got := r.Overlap(); got != 3 {
		t.Errorf("overlap %v, want 3", got)
	}
}

// readCounter counts the reads that reach a device.
type readCounter struct {
	disk.Device
	reads int
}

func (d *readCounter) ReadAt(p []byte, off int64) (int, error) {
	d.reads++
	return d.Device.ReadAt(p, off)
}

// TestRestorerReadsTheRestAtOnceOnASlowDevice: once a read has run below
// slowRestore, the next To reads the whole rest of the range in one read,
// and later ones read nothing; the restored bytes are the image's.
func TestRestorerReadsTheRestAtOnceOnASlowDevice(t *testing.T) {
	const objs, size = 1024, 1024 // 1 MB, read a quarter at a time
	dev := &readCounter{Device: disk.NewThrottle(disk.NewMem(), 1e8)}
	b, err := disk.NewBackup(dev, objs, size)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, objs*size)
	rand.New(rand.NewSource(5)).Read(img)
	if err := b.WriteRun(0, img); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteHeader(disk.Header{Epoch: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	_, p, err := b.ReadHeaderMap()
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]byte, objs*size)
	r := Restorer{src: b, p: p, slab: slab, size: size, hi: objs}
	dev.reads = 0
	for _, obj := range []int{objs / 4, objs / 2, 3 * objs / 4, objs} {
		if err := r.To(obj); err != nil {
			t.Fatal(err)
		}
	}
	if dev.reads != 2 || r.Restored() != objs || !bytes.Equal(slab, img) {
		t.Errorf("%d reads restored %d objects (image restored: %v); want a quarter at 100 MB/s, then the rest in one read",
			dev.reads, r.Restored(), bytes.Equal(slab, img))
	}
}
