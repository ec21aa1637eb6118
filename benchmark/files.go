package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The disk under a checkout is usually a virtual one with a write budget:
// after a few gigabytes in a row its fsync takes twice as long for minutes,
// and a run whose checkpoints and rotations wait for it takes that much
// longer. The helpers below write as few bytes of their own as they can.

// refreshDir makes dst a copy of the directory tree src, writing only what
// differs: a file dst already has is compared block by block and only the
// blocks that differ are rewritten, and a file src does not have is removed.
// It gives each recovery a fresh copy of the crash image at the cost of the
// few blocks the previous recovery changed.
func refreshDir(src, dst string) error {
	keep := map[string]bool{}
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		keep[target] = true
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		return refreshFile(path, target)
	})
	if err != nil {
		return err
	}
	return filepath.WalkDir(dst, func(path string, d os.DirEntry, err error) error {
		if err != nil || keep[path] {
			return err
		}
		if err := os.RemoveAll(path); err != nil {
			return err
		}
		if d.IsDir() {
			return filepath.SkipDir
		}
		return nil
	})
}

// refreshFile makes dst's bytes equal src's, rewriting only the 1 MB blocks
// that differ.
func refreshFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer out.Close() // the success path closes and checks it first
	want, have := make([]byte, 1<<20), make([]byte, 1<<20)
	var off int64
	for {
		n, rerr := io.ReadFull(in, want)
		if n > 0 {
			m, _ := out.ReadAt(have[:n], off) // a short read is a block to rewrite
			if m != n || !bytes.Equal(want[:n], have[:n]) {
				if _, err := out.WriteAt(want[:n], off); err != nil {
					return err
				}
			}
			off += int64(n)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	info, err := out.Stat()
	if err != nil {
		return err
	}
	if info.Size() != off {
		if err := out.Truncate(off); err != nil {
			return err
		}
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under root whose parent
// directory is named elem ("wal" for the logs).
func dirBytes(root, elem string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Base(filepath.Dir(path)) != elem {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
