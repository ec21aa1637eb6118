package recovery

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
)

// gatedDevice holds every read of the object at HeaderSize — the start of
// shard 0's range — until open is closed, so shard 0's restore, and with it
// its replay worker, waits for as long as the test likes.
type gatedDevice struct {
	disk.Device
	open chan struct{}
}

func (d *gatedDevice) ReadAt(p []byte, off int64) (int, error) {
	if off == disk.HeaderSize {
		<-d.open
	}
	return d.Device.ReadAt(p, off)
}

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

// TestRecoverParallelPayloadsOutliveTheirChunk: the log reader reuses a read
// chunk once every record read into it is back on the free list, and closes
// only after the pipeline is joined. Records here are large and of odd sizes,
// so they straddle chunk boundaries, and shard 0's restore is held until the
// reader has run ahead to the batch bound: the records in flight then span
// more than one chunk while shard 0 has applied none of them. A chunk reused
// or unmapped early changes a payload under shard 0's worker, and the slab
// then differs from a serial pass over the same records. The log runs alone,
// and merged with an extra source whose small records, two per gap, fall
// between the log's ticks: the reader fans them while it holds a log record
// not yet fanned, and with three records to a period against an even bound,
// a batch it takes back releases log records while later ones are in flight.
func TestRecoverParallelPayloadsOutliveTheirChunk(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bound := batchesPerShard * shards
			rng := rand.New(rand.NewSource(int64(shards)))
			mem := disk.NewMem()
			a, b := pBackup(t, mem), pBackup(t, disk.NewMem())
			log, image, _ := buildWorkload(t, a, t.TempDir(), 0, 0, 31)
			defer log.Close()
			// About 10 MB in flight at the bound: two and a half chunks.
			per := (10 << 20) / bound
			var logRecs, extra []record
			for tick := uint64(2); tick <= uint64(2*(bound+8)); tick += 2 {
				payload := make([]byte, per+rng.Intn(per/3))
				rng.Read(payload)
				if err := log.Append(tick, payload); err != nil {
					t.Fatal(err)
				}
				logRecs = append(logRecs, record{tick, payload})
				for range 2 {
					small := make([]byte, 64)
					rng.Read(small)
					extra = append(extra, record{tick - 1, small})
				}
			}

			for _, merged := range []bool{false, true} {
				stream := logRecs
				src := records(nil)
				if merged {
					stream = append(slices.Clone(logRecs), extra...)
					slices.SortStableFunc(stream, func(x, y record) int { return cmp.Compare(x.tick, y.tick) })
					src = slices.Clone(extra)
				}
				serial := slices.Clone(image)
				for _, rec := range stream {
					stampRecord(serial, 0, pObj, rec.tick, rec.payload)
				}

				gate := &gatedDevice{Device: mem, open: make(chan struct{})}
				split := 0
				slab := make([]byte, pObj*pObjSize)
				ranges := evenRanges(pObj, shards)
				fanned = func() {
					// fanned runs on the reader, once per record, after it
					// took the record's batch: with the bound-th record every
					// batch is in flight and none can come back before shard
					// 0 restores.
					if split++; split == bound {
						close(gate.open)
					}
				}
				res, err := RecoverParallel(ParallelOptions{
					A: pBackup(t, gate), B: b, Slab: slab, Log: log, Ranges: ranges, Extra: &src,
					Apply: func(shard int, tick uint64, payload []byte) (int64, error) {
						stampRecord(slab, ranges[shard].Lo, ranges[shard].Hi, tick, payload)
						return 1, nil
					},
				})
				fanned = nil
				if err != nil {
					t.Fatal(err)
				}
				if res.BatchesInFlightMax != bound {
					t.Errorf("merged=%v: %d batches in flight, want the bound %d", merged, res.BatchesInFlightMax, bound)
				}
				if !bytes.Equal(slab, serial) {
					t.Fatalf("merged=%v: parallel recovery differs from a serial pass: a payload changed under its applier", merged)
				}
			}
		})
	}
}
