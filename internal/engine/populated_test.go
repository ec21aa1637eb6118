package engine

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gamestate"
)

// TestVersion1ImageRestores: an image written before headers carried a
// populated map (internal/disk/testdata/backup-v1.img: 128 objects of 64
// bytes, cell i holding i·2654435761+1, complete as of tick 41) restores in
// full through both recovery paths.
func TestVersion1ImageRestores(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("..", "disk", "testdata", "backup-v1.img"))
	if err != nil {
		t.Fatal(err)
	}
	tab := gamestate.Table{Rows: 256, Cols: 8, CellSize: 4, ObjSize: 64}
	for _, path := range []string{"Open", "RecoverFrom"} {
		t.Run(path, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "backup-a.img"), img, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 2}
			var e *Engine
			if path == "Open" {
				e, err = Open(opts)
			} else {
				e, _, err = RecoverFrom(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if rec := e.Recovery(); !rec.Restored || rec.BackupIndex != 0 || rec.AsOfTick != 41 || e.NextTick() != 42 {
				t.Fatalf("recovery %+v, next tick %d: want backup 0 as of tick 41", rec, e.NextTick())
			}
			slab := e.Store().Slab()
			for i := 0; i < tab.NumCells(); i++ {
				if got, want := binary.LittleEndian.Uint32(slab[4*i:]), uint32(i)*2654435761+1; got != want {
					t.Fatalf("cell %d restored as %#x, want %#x", i, got, want)
				}
			}
		})
	}
}
