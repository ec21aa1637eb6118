package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/disk"
	"repro/internal/wal"
)

// coldModes are the methods whose images are dirty sets.
var coldModes = []Mode{ModeCopyOnUpdate, ModeAtomicCopy}

// coldTick0 is a first tick confined to the first half of shardTable, so it
// never touches the last object, and the number of objects it dirties.
func coldTick0(seed int64) ([]wal.Update, int) {
	tab := shardTable()
	batch := randomBatch(rand.New(rand.NewSource(seed)), tab.NumCells()/2, 40)
	objs := map[uint32]bool{}
	for _, u := range batch {
		objs[u.Cell/uint32(tab.CellsPerObject())] = true
	}
	return batch, len(objs)
}

// firstImages opens a fresh engine, applies tick 0 and checkpoints until
// both backups hold an image. It returns the slab as of tick 0 and the two
// images in commit order: backup a's first, then backup b's.
func firstImages(t *testing.T, opts Options, tick0 []wal.Update) ([]byte, []CheckpointInfo) {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ApplyTick(tick0); err != nil {
		t.Fatal(err)
	}
	for len(e.Stats().Checkpoints) < 2 {
		if _, err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(e.Store().Slab()), e.Stats().Checkpoints[:2]
}

// restoresFrom checks that Open and RecoverFrom both restore backup idx and
// replay nothing on top, arriving at want. Neither ticks, so the directory
// is left as it was.
func restoresFrom(t *testing.T, opts Options, idx int, want []byte) {
	t.Helper()
	for _, path := range []string{"Open", "RecoverFrom"} {
		var (
			e   *Engine
			err error
		)
		if path == "Open" {
			e, err = Open(opts)
		} else {
			e, _, err = RecoverFrom(opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec := e.Recovery()
		if !rec.Restored || rec.BackupIndex != idx || rec.ReplayedTicks != 0 {
			t.Errorf("%s: recovery %+v, want backup %d restored and nothing replayed", path, rec, idx)
		}
		if !bytes.Equal(e.Store().Slab(), want) {
			t.Errorf("%s: image on backup %d differs from the slab it was cut from", path, idx)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// clobberHeader zeroes a backup's header, so recovery skips its image.
func clobberHeader(t *testing.T, dir, name string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, disk.HeaderSize), 0); err != nil {
		t.Fatal(err)
	}
}

// TestColdStartWritesOnlyDirtied: a fresh engine's backups are blank, so the
// first image of each writes exactly the objects tick 0 dirtied plus the
// last object. That object extends the file to full length, and the holes
// left behind restore as the zeros the state holds, through both recovery
// paths.
func TestColdStartWritesOnlyDirtied(t *testing.T) {
	tab := shardTable()
	for _, mode := range coldModes {
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Table: tab, Dir: dir, Mode: mode, Shards: shards}
				tick0, dirtied := coldTick0(int64(shards))
				want, cps := firstImages(t, opts, tick0)
				for i, cp := range cps {
					if cp.AsOfTick != 0 || cp.Objects != dirtied+1 {
						t.Errorf("first image %d: %d objects as of tick %d, want %d as of tick 0",
							i, cp.Objects, cp.AsOfTick, dirtied+1)
					}
				}
				for _, name := range []string{"backup-a.img", "backup-b.img"} {
					st, err := os.Stat(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					if full := int64(disk.HeaderSize + tab.StateBytes()); st.Size() != full {
						t.Errorf("%s is %d bytes, want header + state = %d", name, st.Size(), full)
					}
				}
				restoresFrom(t, opts, 1, want)
				clobberHeader(t, dir, "backup-b.img")
				restoresFrom(t, opts, 0, want)
			})
		}
	}
}

// TestColdStartNonBlankBackupWritesFull: a backup holding any byte past its
// header — one stray byte, or what a torn first flush leaves (an incomplete
// header over part of an image) — is not blank, so its first image is the
// whole state and overwrites the old bytes. The blank backup beside it still
// writes only the dirtied objects.
func TestColdStartNonBlankBackupWritesFull(t *testing.T) {
	tab := shardTable()
	leftovers := map[string]func(f *disk.File, b *disk.Backup) error{
		"stray-byte": func(f *disk.File, _ *disk.Backup) error {
			_, err := f.WriteAt([]byte{0xAB}, disk.HeaderSize)
			return err
		},
		"torn-first-flush": func(_ *disk.File, b *disk.Backup) error {
			if err := b.WriteHeader(disk.Header{Epoch: 1}); err != nil {
				return err
			}
			return b.WriteRun(3, bytes.Repeat([]byte{0xCD}, 2*tab.ObjSize))
		},
	}
	for name, leave := range leftovers {
		for _, mode := range coldModes {
			for _, shards := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", name, mode, shards), func(t *testing.T) {
					dir := t.TempDir()
					f, err := disk.OpenFile(filepath.Join(dir, "backup-a.img"))
					if err != nil {
						t.Fatal(err)
					}
					b, err := disk.NewBackup(f, tab.NumObjects(), tab.ObjSize)
					if err != nil {
						t.Fatal(err)
					}
					if err := leave(f, b); err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					opts := Options{Table: tab, Dir: dir, Mode: mode, Shards: shards}
					tick0, dirtied := coldTick0(int64(10 + shards))
					want, cps := firstImages(t, opts, tick0)
					if cps[0].Objects != tab.NumObjects() {
						t.Errorf("first image on the non-blank backup wrote %d objects, want all %d",
							cps[0].Objects, tab.NumObjects())
					}
					if cps[1].Objects != dirtied+1 {
						t.Errorf("first image on the blank backup wrote %d objects, want %d", cps[1].Objects, dirtied+1)
					}
					clobberHeader(t, dir, "backup-b.img")
					restoresFrom(t, opts, 0, want)
				})
			}
		}
	}
}

// TestColdStartStandbyOtherBackup: a standby lands the shipped image on one
// of its blank backups and recovers from it. The image must reach the other
// backup's dirty map too, or that backup's first image would hold the
// promoted tick's objects over zeros instead of over the image.
func TestColdStartStandbyOtherBackup(t *testing.T) {
	tab := shardTable()
	for _, mode := range coldModes {
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(20 + shards)))
				// A primary whose image, as of tick 4, holds a random world.
				p, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				world := make([]wal.Update, tab.NumCells())
				for i := range world {
					world[i] = wal.Update{Cell: uint32(i), Value: rng.Uint32()}
				}
				for tick := 0; tick < 5; tick++ {
					if err := p.ApplyTick(world); err != nil {
						t.Fatal(err)
					}
					world = nil
				}
				if _, err := p.CheckpointAsOf(4); err != nil {
					t.Fatal(err)
				}
				opts := Options{Table: tab, Dir: t.TempDir(), Mode: mode, Shards: shards}
				e := standbyOf(t, p, opts)
				defer e.Close()
				if err := e.Promote(); err != nil {
					t.Fatal(err)
				}
				if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 8)); err != nil {
					t.Fatal(err)
				}
				for len(e.Stats().Checkpoints) < 1 { // backup b's first image
					if _, err := e.CheckpointNow(); err != nil {
						t.Fatal(err)
					}
				}
				if cp, epoch := e.Stats().Checkpoints[0], e.Recovery().Epoch; cp.Epoch != epoch+1 || cp.AsOfTick != 5 {
					t.Fatalf("first image after the shipped one: epoch %d as of tick %d, want %d as of 5", cp.Epoch, cp.AsOfTick, epoch+1)
				}
				want := bytes.Clone(e.Store().Slab())
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				clobberHeader(t, opts.Dir, "backup-a.img")
				restoresFrom(t, opts, 1, want)
			})
		}
	}
}

// TestColdStartReplayedWorldWritesNonZeroWords: backups left blank by a
// ModeNone engine are still blank when a checkpointing engine reopens the
// directory, but the world is not empty — replay rebuilt it from the log —
// so the first image of each backup writes every bitmap word where the
// replayed state holds a non-zero byte, plus the last object, and restores
// to that state.
func TestColdStartReplayedWorldWritesNonZeroWords(t *testing.T) {
	tab := shardTable()
	for _, mode := range coldModes {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Table: tab, Dir: dir, Mode: ModeNone, SyncEveryTick: true}
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tick0, _ := coldTick0(30)
			if err := e.ApplyTick(tick0); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			opts.Mode = mode
			e, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if rec := e.Recovery(); rec.Restored || rec.ReplayedTicks != 1 {
				t.Fatalf("reopen: recovery %+v, want one tick replayed and no image", rec)
			}
			want, last := 0, false
			wordBytes := 64 * tab.ObjSize
			for w := 0; w*wordBytes < len(e.Store().Slab()); w++ {
				if !allZero(e.Store().Slab()[w*wordBytes : (w+1)*wordBytes]) {
					want += 64
					last = (w+1)*64 >= tab.NumObjects()
				}
			}
			if !last {
				want++
			}
			if want <= 1 || want >= tab.NumObjects() {
				t.Fatalf("tick 0 leaves %d objects to write of %d: not a partial world", want, tab.NumObjects())
			}
			if err := e.ApplyTick(nil); err != nil {
				t.Fatal(err)
			}
			info, err := e.CheckpointNow()
			if err != nil {
				t.Fatal(err)
			}
			if info.Objects != want {
				t.Errorf("first image of a replayed world wrote %d objects, want the %d of its non-zero words and the last object", info.Objects, want)
			}
			state := bytes.Clone(e.Store().Slab())
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			restoresFrom(t, opts, 0, state)
		})
	}
}
