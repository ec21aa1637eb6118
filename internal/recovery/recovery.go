// Package recovery implements the crash-recovery procedure of Section 4.2:
// restore the newest complete checkpoint image from the double backup, then
// replay the logical log from the tick after the image's consistency point
// up to the crash tick. ΔTrecovery = ΔTrestore + ΔTreplay.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
)

// Result describes a completed recovery.
type Result struct {
	// Restored reports whether a complete checkpoint image was found. When
	// false, the state starts zeroed and the whole log is replayed.
	Restored bool
	// BackupIndex is the image restored (0 or 1), -1 if none.
	BackupIndex int
	// Epoch and AsOfTick identify the restored image.
	Epoch    uint64
	AsOfTick uint64
	// NextTick is the tick the engine should apply next.
	NextTick uint64
	// ReplayedTicks and ReplayedUpdates count the log replay work.
	ReplayedTicks   int
	ReplayedUpdates int64
	// RestoreDuration and ReplayDuration measure ΔTrestore and ΔTreplay.
	RestoreDuration time.Duration
	ReplayDuration  time.Duration
}

// ChooseBackup inspects both image headers and returns the index of the
// newest complete image, or -1 if neither is usable. disk.ErrNoImage from a
// header read is treated as "no image" (fresh or torn), not an error. Any
// other header error (unreadable device, geometry mismatch) makes that
// backup unusable but does not abort recovery: the point of the double
// backup is that one image surviving is enough. Recovery fails only when a
// backup errored AND no complete image exists — falling back to an empty
// state would silently discard the state the broken backup may hold.
func ChooseBackup(a, b *disk.Backup) (int, disk.Header, error) {
	var best disk.Header
	var firstErr error
	idx := -1
	for i, bk := range []*disk.Backup{a, b} {
		h, err := bk.ReadHeader()
		if err == disk.ErrNoImage {
			continue
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("recovery: backup %d: %w", i, err)
			}
			continue
		}
		if !h.Complete {
			continue
		}
		if idx < 0 || h.Epoch > best.Epoch {
			best = h
			idx = i
		}
	}
	if idx < 0 && firstErr != nil {
		return -1, disk.Header{}, firstErr
	}
	return idx, best, nil
}

// Restore loads the newest complete image into slab. If neither image is
// complete the slab is zeroed. It returns which image was used.
func Restore(a, b *disk.Backup, slab []byte) (Result, error) {
	start := time.Now()
	idx, h, err := ChooseBackup(a, b)
	if err != nil {
		return Result{}, err
	}
	res := Result{BackupIndex: idx}
	if idx < 0 {
		for i := range slab {
			slab[i] = 0
		}
		res.RestoreDuration = time.Since(start)
		return res, nil
	}
	src := a
	if idx == 1 {
		src = b
	}
	if err := src.ReadInto(slab); err != nil {
		return Result{}, fmt.Errorf("recovery: restore image %d: %w", idx, err)
	}
	res.Restored = true
	res.Epoch = h.Epoch
	res.AsOfTick = h.AsOfTick
	res.NextTick = h.AsOfTick + 1
	res.RestoreDuration = time.Since(start)
	return res, nil
}

// RunRecords performs full recovery with caller-interpreted log records:
// Restore, then invoke apply for every logged record after the image's
// consistency point, in log order. The caller decides what a record payload
// means (the engine mixes update batches, messages and range installs in one
// log).
func RunRecords(a, b *disk.Backup, slab []byte, log *wal.Log,
	apply func(tick uint64, payload []byte) error) (Result, error) {

	res, err := Restore(a, b, slab)
	if err != nil {
		return res, err
	}
	from := uint64(0)
	if res.Restored {
		from = res.AsOfTick + 1
	}
	replayStart := time.Now()
	lastTick := uint64(0)
	sawTick := false
	err = log.Replay(from, func(tick uint64, payload []byte) error {
		if !sawTick || tick != lastTick {
			res.ReplayedTicks++
		}
		sawTick = true
		lastTick = tick
		return apply(tick, payload)
	})
	if err != nil {
		return res, fmt.Errorf("recovery: replay: %w", err)
	}
	res.ReplayDuration = time.Since(replayStart)
	if sawTick {
		res.NextTick = lastTick + 1
	}
	return res, nil
}

// Run performs full recovery over a log of plain update batches
// (wal.EncodeUpdates payloads): apply is called once per logged update, in
// log order; tick boundaries are reported through onTick (which may be nil).
func Run(a, b *disk.Backup, slab []byte, log *wal.Log,
	apply func(u wal.Update), onTick func(tick uint64)) (Result, error) {

	var buf []wal.Update
	var updates int64
	res, err := RunRecords(a, b, slab, log, func(tick uint64, payload []byte) error {
		var derr error
		buf, derr = wal.DecodeUpdates(buf[:0], payload)
		if derr != nil {
			return derr
		}
		if onTick != nil {
			onTick(tick)
		}
		for _, u := range buf {
			apply(u)
		}
		updates += int64(len(buf))
		return nil
	})
	res.ReplayedUpdates = updates
	return res, err
}
