package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// devOp is one mutation a backup device saw.
type devOp struct {
	dev  int  // 0 = backup-a, 1 = backup-b
	sync bool // Sync; otherwise a write of n bytes at off
	off  int64
	n    int
	// For a header write (off 0): the epoch and complete flag it carries
	// (image layout, internal/disk/backup.go).
	epoch    uint64
	complete bool
}

// opLog is the shared, ordered record of both backups' mutations.
type opLog struct {
	mu  sync.Mutex
	ops []devOp
}

// recDev records every write and sync in the order the device saw them.
// Embedding the interface hides the vectored fast path, so a vectored run
// arrives as its slices, in order.
type recDev struct {
	disk.Device
	dev int
	log *opLog
}

func (d *recDev) WriteAt(p []byte, off int64) (int, error) {
	op := devOp{dev: d.dev, off: off, n: len(p)}
	if off == 0 {
		op.epoch, op.complete = binary.LittleEndian.Uint64(p[13:]), p[29] == 1
	}
	d.log.mu.Lock()
	d.log.ops = append(d.log.ops, op)
	d.log.mu.Unlock()
	return d.Device.WriteAt(p, off)
}

func (d *recDev) Sync() error {
	d.log.mu.Lock()
	d.log.ops = append(d.log.ops, devOp{dev: d.dev, sync: true})
	d.log.mu.Unlock()
	return d.Device.Sync()
}

// TestRunIterMatchesBitLoop checks the shared dirty-run iterator against a
// bit-by-bit reference: maximal runs, in order, continuing across word
// boundaries, confined to [lo, hi) even when bits are set outside it.
func TestRunIterMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		words := make([]uint64, 1+rng.Intn(6))
		for i := range words {
			switch rng.Intn(4) {
			case 0: // sparse
				words[i] = 1<<uint(rng.Intn(64)) | 1<<uint(rng.Intn(64))
			case 1: // dense, so runs cross into the next word
				words[i] = ^uint64(0) &^ (1 << uint(rng.Intn(64)))
			case 2:
				words[i] = ^uint64(0)
			}
		}
		lo := 64 * rng.Intn(len(words))
		hi := lo + 1 + rng.Intn(64*len(words)-lo)
		var want [][2]int
		for obj := lo; obj < hi; obj++ {
			if words[obj>>6]&(1<<uint(obj&63)) == 0 {
				continue
			}
			if n := len(want); n > 0 && want[n-1][1] == obj {
				want[n-1][1]++
			} else {
				want = append(want, [2]int{obj, obj + 1})
			}
		}
		var got [][2]int
		it := runIter{words: words, pos: lo, hi: hi}
		for start, end, ok := it.next(); ok; start, end, ok = it.next() {
			got = append(got, [2]int{start, end})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("words %x range [%d,%d): runs %v, want %v", words, lo, hi, got, want)
		}
	}
}

// TestImageCommitOrder pins the commit protocol every image goes through,
// whatever the method, the shard count or the caller (checkpoint writer or
// standby bootstrap): incomplete header first, data only inside the image
// and ascending within each shard, one Sync, complete header last, nothing
// after it (but that header's own Sync); consecutive images alternate
// backups with increasing epochs.
func TestImageCommitOrder(t *testing.T) {
	type tc struct {
		mode    Mode
		shards  int
		standby bool
	}
	var cases []tc
	for _, shards := range []int{1, 2, 8} {
		for _, mode := range checkpointingModes {
			cases = append(cases, tc{mode, shards, false})
		}
		cases = append(cases, tc{ModeCopyOnUpdate, shards, true})
	}
	tab := shardTable()
	for _, c := range cases {
		name := fmt.Sprintf("%v/shards=%d", c.mode, c.shards)
		if c.standby {
			name += "/standby"
		}
		t.Run(name, func(t *testing.T) {
			var log opLog
			opts := Options{
				Table: tab, Dir: t.TempDir(), Mode: c.mode, Shards: c.shards,
				DeviceFactory: func(path string) (disk.Device, error) {
					dev, err := disk.OpenFile(path)
					if err != nil {
						return nil, err
					}
					idx := 0
					if strings.HasSuffix(path, "backup-b.img") {
						idx = 1
					}
					return &recDev{Device: dev, dev: idx, log: &log}, nil
				},
			}
			var e *Engine
			var err error
			images := 3
			if c.standby {
				e, err = OpenStandby(opts, 5, make([]byte, tab.StateBytes()))
				images++ // the bootstrap image
			} else {
				e, err = Open(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := uint32(0); i < 3; i++ {
				// A few scattered objects, so dirty-set images hold several
				// separate runs.
				batch := []wal.Update{{Cell: i, Value: i}, {Cell: 700 + 9*i, Value: i}, {Cell: uint32(tab.NumCells()) - 1 - i, Value: i}}
				if c.standby {
					err = e.IngestReplicated(e.NextTick(), wal.EncodeUpdates([]byte{recUpdates}, batch))
				} else {
					err = e.ApplyTickParallel(batch)
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
			plan := e.plan
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			imageEnd := int64(disk.HeaderSize) + int64(tab.StateBytes())
			objSize := int64(tab.ObjSize)
			// Each image walks these phases in order; WriteHeader syncs the
			// header it wrote, so a header write is always followed by a Sync.
			const (
				idle       = iota // between images: only an incomplete header may come
				invalidate        // incomplete header written, its Sync due
				data              // shard writes, ended by the image's one data Sync
				synced            // data durable: only the complete header may come
				commit            // complete header written, its Sync due
			)
			var (
				seen      int
				phase     = idle
				cur       devOp             // the open image's incomplete header
				prev      devOp             // the last committed image's header
				shardNext = map[int]int64{} // per shard: end of its last write
			)
			for i, op := range log.ops {
				if phase != idle && op.dev != cur.dev {
					t.Fatalf("op %d %+v: touches the other backup mid-image", i, op)
				}
				header := !op.sync && op.off == 0
				switch {
				case phase == idle && header && !op.complete:
					if seen > 0 && (op.dev == prev.dev || op.epoch <= prev.epoch) {
						t.Fatalf("op %d: image on backup %d epoch %d follows backup %d epoch %d: want the other backup, a later epoch",
							i, op.dev, op.epoch, prev.dev, prev.epoch)
					}
					phase, cur = invalidate, op
					shardNext = map[int]int64{}
				case phase == invalidate && op.sync:
					phase = data
				case phase == data && op.sync:
					phase = synced
				case phase == data && !header:
					if op.off < disk.HeaderSize || op.off+int64(op.n) > imageEnd {
						t.Fatalf("op %d %+v: data write outside the image [%d, %d)", i, op, disk.HeaderSize, imageEnd)
					}
					s := plan.shardOf(int32((op.off - disk.HeaderSize) / objSize))
					if op.off < shardNext[s] {
						t.Fatalf("op %d %+v: shard %d already wrote up to %d", i, op, s, shardNext[s])
					}
					shardNext[s] = op.off + int64(op.n)
				case phase == synced && header && op.complete && op.epoch == cur.epoch:
					phase, prev = commit, op
				case phase == commit && op.sync:
					phase = idle
					seen++
				default:
					t.Fatalf("op %d %+v: not allowed in phase %d of the image begun by %+v", i, op, phase, cur)
				}
			}
			if phase != idle {
				t.Fatalf("log ends in phase %d of an uncommitted image", phase)
			}
			if seen != images {
				t.Fatalf("saw %d committed images, want %d", seen, images)
			}
		})
	}
}

// TestCloseBooksShutdownCheckpoint: a checkpoint that completes while Close
// waits for the writer is booked like any other, so /metrics agrees with
// Stats to the last image.
func TestCloseBooksShutdownCheckpoint(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	counter := func(name string) uint64 {
		v, ok := telemetry.CounterValue(name)
		if !ok {
			t.Fatalf("counter %s is not registered", name)
		}
		return v
	}
	n0, bytes0 := counter("engine_checkpoints_total"), counter("engine_checkpoint_bytes_total")
	// 256 KiB of state at 4 MB/s: the checkpoint the first tick begins is
	// still being flushed when Close is called.
	e, err := Open(Options{Table: shardTable(), Dir: t.TempDir(), Mode: ModeCopyOnUpdate, DiskBytesPerSec: 4e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyTick([]wal.Update{{Cell: 1, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	infos := e.Stats().Checkpoints
	if len(infos) == 0 {
		t.Fatal("the checkpoint begun by the tick was not collected by Close")
	}
	var sum uint64
	for _, info := range infos {
		sum += uint64(info.Bytes)
	}
	if got := counter("engine_checkpoints_total") - n0; got != uint64(len(infos)) {
		t.Errorf("engine_checkpoints_total advanced by %d, Stats holds %d checkpoints", got, len(infos))
	}
	if got := counter("engine_checkpoint_bytes_total") - bytes0; got != sum {
		t.Errorf("engine_checkpoint_bytes_total advanced by %d, Stats checkpoints sum to %d", got, sum)
	}
	if got := e.CheckpointEpoch(); got != infos[len(infos)-1].Epoch {
		t.Errorf("CheckpointEpoch = %d, newest booked image has epoch %d", got, infos[len(infos)-1].Epoch)
	}
}
