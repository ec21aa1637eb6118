package recovery

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
)

// stampRecord folds a digest of the whole payload into one cell of every
// object in [lo, hi): any byte of any record that changed under its applier
// changes the slab.
func stampRecord(slab []byte, lo, hi int, tick uint64, payload []byte) {
	sum := crc32.ChecksumIEEE(payload)
	cell := int(tick % (pObjSize / 4))
	for obj := lo; obj < hi; obj++ {
		p := slab[obj*pObjSize+cell*4:]
		binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)*31+sum^uint32(obj))
	}
}

// TestRecoverParallelPayloadsOutliveTheirChunk: a log record's payload
// aliases its segment's mapping, which the reader unmaps once the segment is
// done and the pipeline has released every record read from it, and the
// reader closes only after the last window. Every tick here is split by a
// rotation, so each segment holds the second record of one tick and the
// first of the next, and the window budget is lowered so that a window spans
// many segments and the log several windows. A mapping unmapped early faults
// (in a race build, where payloads live on the heap, it is poisoned), and the
// slab then differs from a serial pass over the same records. The log runs
// alone, and merged with an extra source that holds one record in each gap
// between the log's ticks and one at each of the log's ticks, where the log
// holds two: the reader holds a shared tick's log records back until it has
// read past them, then replays the log's longer copy. Each window but the
// last ends after the reader has read the first record of a tick that the
// merge then holds back, in a segment that retires before that record's
// window runs, so a release covering every record read, not the window's
// last mark, unmaps it.
func TestRecoverParallelPayloadsOutliveTheirChunk(t *testing.T) {
	defer func(b int) { windowBudget = b }(windowBudget)
	windowBudget = 10 << 20
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
			log, image, _ := buildWorkload(t, a, t.TempDir(), 0, 0, 31)
			defer log.Close()
			payload := func() []byte {
				const per = 400 << 10
				p := make([]byte, per+rng.Intn(per/6))
				rng.Read(p)
				return p
			}
			// About 43 MB of log in 51 segments, and 65 MB of log and source
			// merged: a window spans about a dozen segments.
			var logRecs, merged, extra []record
			for tick := uint64(2); tick <= 100; tick += 2 {
				gap := record{tick - 1, payload()}
				extra = append(extra, gap, record{tick, payload()})
				merged = append(merged, gap)
				for k := range 2 {
					rec := record{tick, payload()}
					if err := log.Append(tick, rec.payload); err != nil {
						t.Fatal(err)
					}
					if k == 0 {
						if err := log.Rotate(tick); err != nil { // named tick+1
							t.Fatal(err)
						}
					}
					logRecs = append(logRecs, rec)
					merged = append(merged, rec)
				}
			}

			for _, withExtra := range []bool{false, true} {
				stream, src := logRecs, records(nil)
				if withExtra {
					stream, src = merged, slices.Clone(extra)
				}
				serial := slices.Clone(image)
				for _, rec := range stream {
					stampRecord(serial, 0, pObj, rec.tick, rec.payload)
				}

				slab := make([]byte, pObj*pObjSize)
				ranges := evenRanges(pObj, shards)
				res, err := RecoverParallel(perRecord(ParallelOptions{
					A: a, B: b, Slab: slab, Log: log, Ranges: ranges, Extra: &src,
				}, func(shard int, tick uint64, payload []byte) (int64, error) {
					stampRecord(slab, ranges[shard].Lo, ranges[shard].Hi, tick, payload)
					return 1, nil
				}))
				if err != nil {
					t.Fatal(err)
				}
				if res.Windows < 4 {
					t.Errorf("extra=%v: %d windows, want several", withExtra, res.Windows)
				}
				if !bytes.Equal(slab, serial) {
					t.Fatalf("extra=%v: parallel recovery differs from a serial pass: a payload changed under its applier", withExtra)
				}
			}
		})
	}
}
