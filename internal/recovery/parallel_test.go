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
// batches: every record is split at the cell bounds of its ranges and a
// shard writes its bucket unfiltered; no record may travel whole.
func updateLog(o ParallelOptions) ParallelOptions {
	slab := o.Slab
	for _, r := range o.Ranges {
		o.CellBounds = append(o.CellBounds, uint32(r.Hi*o.A.ObjSize()/4))
	}
	o.Split = func(payload []byte) ([]byte, bool) { return payload, true }
	o.ApplyUpdates = func(_ int, _ uint64, updates []wal.Update) {
		for _, u := range updates {
			binary.LittleEndian.PutUint32(slab[u.Cell*4:], u.Value)
		}
	}
	o.Apply = func(shard int, tick uint64, _ []byte) (int64, error) {
		return 0, fmt.Errorf("shard %d handed the update record at tick %d whole", shard, tick)
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
		t.Error("log without Apply accepted")
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
	_, err := RecoverParallel(ParallelOptions{
		A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 4),
		Apply: func(shard int, tick uint64, payload []byte) (int64, error) {
			if shard == 2 && tick == 7 {
				return 0, sentinel
			}
			return 0, nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("apply error not propagated: %v", err)
	}
}

// TestRecoverParallelOverlap: with a throttled backup the early shards'
// replay must begin while later shards are still restoring, so the overlap
// is strictly positive and the pipeline total undercuts the serial sum of
// the stages.
func TestRecoverParallelOverlap(t *testing.T) {
	// 4 KB image at 100 KB/s ≈ 40 ms restore; the token bucket staggers the
	// four shards ≈10 ms apart, so the first shard's replay leads the last
	// shard's restore by ≈30 ms — wide enough to stay positive on a loaded
	// runner.
	dev := disk.NewThrottle(disk.NewMem(), 1e5)
	a, b := pBackup(t, dev), pBackup(t, disk.NewMem())
	log, _, _ := buildWorkload(t, a, t.TempDir(), 0, 60, 13)
	defer log.Close()
	slab := make([]byte, pObj*pObjSize)
	res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 4)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Overlap() <= 0 {
		t.Errorf("restore∥replay overlap %v not positive: restore=%v replay=%v total=%v",
			res.Overlap(), res.RestoreDuration, res.ReplayDuration, res.TotalDuration)
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

// TestRecoverParallelFreeListBound: over a 2,000-record log the replay stage
// never has more than batchesPerShard × shards records in flight — it
// allocates that many batches at most and recycles them — and says how many
// it used, and where the replay stage's time went, in the result and on the
// recovery/replay span.
func TestRecoverParallelFreeListBound(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	log, _, _ := buildWorkload(t, a, t.TempDir(), 0, 2000, 23)
	defer log.Close()
	telemetry.Enable()
	defer telemetry.Disable()
	for _, shards := range []int{1, 2, 8} {
		telemetry.ResetSpans()
		slab := make([]byte, pObj*pObjSize)
		res, err := RecoverParallel(updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, shards)}))
		if err != nil {
			t.Fatal(err)
		}
		if res.BatchesInFlightMax < 1 || res.BatchesInFlightMax > batchesPerShard*shards {
			t.Errorf("shards %d: %d batches in flight over %d records, bound %d",
				shards, res.BatchesInFlightMax, res.ReplayedTicks, batchesPerShard*shards)
		}
		if res.DecodeBusy <= 0 || res.ApplyBusy <= 0 {
			t.Errorf("shards %d: decode busy %v, apply busy %v", shards, res.DecodeBusy, res.ApplyBusy)
		}
		for _, sp := range telemetry.Spans() {
			if sp.Name != "recovery/replay" {
				continue
			}
			attrs := map[string]int64{}
			for _, at := range sp.Attrs {
				attrs[at.Key] = at.Int
			}
			if attrs["decode_ns"] != int64(res.DecodeBusy) || attrs["apply_ns"] != int64(res.ApplyBusy) ||
				attrs["batches_in_flight_max"] != int64(res.BatchesInFlightMax) {
				t.Errorf("shards %d: replay span %v disagrees with the result (%v, %v, %d)",
					shards, attrs, res.DecodeBusy, res.ApplyBusy, res.BatchesInFlightMax)
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

// TestRecoverParallelSplitNeedsItsHalves: Split without the bucket applier
// or with the wrong number of cell bounds is refused up front.
func TestRecoverParallelSplitNeedsItsHalves(t *testing.T) {
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	log, _, _ := buildWorkload(t, a, t.TempDir(), 0, 3, 29)
	defer log.Close()
	slab := make([]byte, pObj*pObjSize)
	opts := updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 2)})
	opts.CellBounds = opts.CellBounds[:1]
	if _, err := RecoverParallel(opts); err == nil {
		t.Error("one cell bound for two shards accepted")
	}
	opts = updateLog(ParallelOptions{A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, 2)})
	opts.ApplyUpdates = nil
	if _, err := RecoverParallel(opts); err == nil {
		t.Error("Split without ApplyUpdates accepted")
	}
}

// BenchmarkReplayPipeline is the replay stage alone at the repo benchmark's
// crash-recover shape: 640 records of 6,400 hotspot-spread updates over a
// 40 MB table, restored from an in-memory image so the log is the work.
func BenchmarkReplayPipeline(b *testing.B) {
	const (
		objects, objSize = 78_125, 512
		cells            = objects * objSize / 4
		records, perRec  = 640, 6400
	)
	a, err := disk.NewBackup(disk.NewMem(), objects, objSize)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := disk.NewBackup(disk.NewMem(), objects, objSize)
	if err != nil {
		b.Fatal(err)
	}
	log, err := wal.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rng := rand.New(rand.NewSource(1))
	batch := make([]wal.Update, perRec)
	var buf []byte
	for tick := uint64(0); tick < records; tick++ {
		for i := range batch {
			batch[i] = wal.Update{Cell: uint32(rng.Intn(cells)), Value: rng.Uint32()}
		}
		buf = wal.EncodeUpdates(buf[:0], batch)
		if err := log.Append(tick, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		b.Fatal(err)
	}
	slab := make([]byte, objects*objSize)
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			opts := updateLog(ParallelOptions{A: a, B: bb, Slab: slab, Log: log, Ranges: evenRanges(objects, shards)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RecoverParallel(opts)
				if err != nil || res.ReplayedUpdates != records*perRec {
					b.Fatalf("replayed %d updates: %v", res.ReplayedUpdates, err)
				}
			}
			b.ReportMetric(float64(b.N)*records*perRec/b.Elapsed().Seconds(), "updates/s")
		})
	}
}
