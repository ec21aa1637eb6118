// Package recovery implements the crash-recovery procedure of Section 4.2:
// restore the newest complete checkpoint image from the double backup, then
// replay the logical log from the tick after the image's consistency point
// up to the crash tick. ΔTrecovery = ΔTrestore + ΔTreplay.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/disk"
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
	// Images holds each backup's populated map as its valid header records
	// it, complete or not, and the full map where the header is missing,
	// torn or unreadable. Images[BackupIndex] is the map the restore read.
	Images [2]disk.Populated
}

// chooseBackup inspects both image headers and returns the index of the
// newest complete image, or -1 if neither is usable, with each backup's
// populated map (see Result.Images). disk.ErrNoImage from a header read is
// treated as "no image" (fresh or torn), not an error. Any other header
// error (unreadable device, geometry mismatch) makes that backup unusable
// but does not abort recovery: the point of the double backup is that one
// image surviving is enough. Recovery fails only when a backup errored AND
// no complete image exists — falling back to an empty state would silently
// discard the state the broken backup may hold.
func chooseBackup(a, b *disk.Backup) (int, disk.Header, [2]disk.Populated, error) {
	var best disk.Header
	var maps [2]disk.Populated
	var firstErr error
	idx := -1
	for i, bk := range []*disk.Backup{a, b} {
		h, p, err := bk.ReadHeaderMap()
		if err == disk.ErrNoImage {
			continue
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("recovery: backup %d: %w", i, err)
			}
			continue
		}
		maps[i] = p
		if !h.Complete {
			continue
		}
		if idx < 0 || h.Epoch > best.Epoch {
			best = h
			idx = i
		}
	}
	if idx < 0 && firstErr != nil {
		return -1, disk.Header{}, maps, firstErr
	}
	return idx, best, maps, nil
}

// readImage is the restore's run walker: it reads the objects
// [lo, hi) of src's image that lie in words p covers into slab, one vectored
// read of restoreChunk slices per run of consecutive covered words, and
// leaves every other object of slab as it is.
func readImage(src *disk.Backup, p disk.Populated, slab []byte, lo, hi int) error {
	sz := src.ObjSize()
	return p.EachRun(lo, hi, func(start, end int) error {
		region := slab[start*sz : end*sz]
		bufs := make([][]byte, 0, (len(region)+restoreChunk-1)/restoreChunk)
		for off := 0; off < len(region); off += restoreChunk {
			bufs = append(bufs, region[off:min(off+restoreChunk, len(region))])
		}
		return src.ReadRunVec(start, bufs)
	})
}
