package recovery

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
)

// readLog is a device that records the byte range of every read.
type readLog struct {
	disk.Device
	mu    sync.Mutex
	reads [][2]int64
}

func (d *readLog) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.reads = append(d.reads, [2]int64{off, off + int64(len(p))})
	d.mu.Unlock()
	return d.Device.ReadAt(p, off)
}

// TestRestoreSkipsClearWords: an image whose populated map clears a word
// restores that word as the zeros the slab holds and reads none of its
// bytes — even where the file holds stray bytes there — through the
// pipeline at one range and at shard ranges that cut words apart. Every
// other byte of the image is read and restored.
func TestRestoreSkipsClearWords(t *testing.T) {
	const objects, objSize = 256, 16 // 4 bitmap words
	const gap = 1
	img := make([]byte, objects*objSize)
	for i := range img {
		img[i] = byte(i%251 + 1)
	}
	want := bytes.Clone(img)
	wordBytes := 64 * objSize
	lo, hi := int64(disk.HeaderSize+gap*wordBytes), int64(disk.HeaderSize+(gap+1)*wordBytes)
	clear(want[gap*wordBytes : (gap+1)*wordBytes])

	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("parallel/shards=%d", shards), func(t *testing.T) {
			// The shards' run reads meet in one Throttle, as the engine's do.
			dev := &readLog{Device: disk.NewMem()}
			a, err := disk.NewBackup(disk.NewThrottle(dev, 1e9), objects, objSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.WriteRun(0, img); err != nil {
				t.Fatal(err)
			}
			words := []uint64{0b1111 &^ (1 << gap)}
			if err := a.WriteHeaderMap(disk.Header{Epoch: 2, AsOfTick: 9, Complete: true}, words); err != nil {
				t.Fatal(err)
			}
			b, err := disk.NewBackup(disk.NewMem(), objects, objSize)
			if err != nil {
				t.Fatal(err)
			}
			slab := make([]byte, objects*objSize)
			res, err := RecoverParallel(ParallelOptions{A: a, B: b, Slab: slab, Ranges: evenRanges(objects, shards)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Restored || res.BackupIndex != 0 || res.Images[0].Has(gap) || !res.Images[0].Has(0) {
				t.Fatalf("result %+v: want backup 0 restored with word %d clear in its map", res.Result, gap)
			}
			if !bytes.Equal(slab, want) {
				t.Fatal("restored state differs from the image with the clear word zeroed")
			}
			var data int64
			for _, r := range dev.reads {
				if r[0] < hi && r[1] > lo {
					t.Errorf("read [%d,%d) touches the clear word's bytes [%d,%d)", r[0], r[1], lo, hi)
				}
				if r[0] >= disk.HeaderSize {
					data += r[1] - r[0]
				}
			}
			if want := int64(len(img) - wordBytes); data != want {
				t.Errorf("read %d image bytes, want the %d of the populated words", data, want)
			}
		})
	}
}
