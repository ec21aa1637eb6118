//go:build linux && !race

package disk

import (
	"os"
	"syscall"
)

// madvHugepage is MADV_HUGEPAGE, the same value on every Linux architecture.
const madvHugepage = 14

// MapZeroed returns n bytes of anonymous private memory the kernel has zeroed
// and Go has not: its pages are faulted in (and zeroed once, by the kernel)
// by whichever goroutine writes them first, so a restore fills a fresh slab
// without a serial memclr in front of it. The mapping is advised onto huge
// pages: at 4 KiB pages the first-write faults cost the restore as much as
// the memclr they replace. The memory is outside the Go heap — the garbage
// collector never frees it — and must be released with Unmap once nothing
// reads it any more.
//
// Race builds keep the heap (mem_other.go): the race detector does not see
// memory outside it.
func MapZeroed(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// Advice only: a kernel without transparent huge pages maps 4 KiB pages.
	syscall.Madvise(b, madvHugepage) //nolint:errcheck
	return b, nil
}

// MapFile returns n bytes of f from off, a multiple of os.Getpagesize(), as a
// read-only shared mapping of the file's pages, faulted in up front: a
// reader parses the file where the page cache holds it, with no copy. The
// mapping reaches ahead bytes further, over the slice's capacity: those
// bytes read as the file once it has grown over them, so a follower extends
// the slice rather than mapping again. Reading a mapped byte past the file's
// end faults, and so does one past a truncation. Release it with Unmap.
//
// Race builds read into the heap instead, with nothing ahead (mem_other.go).
func MapFile(f *os.File, off int64, n, ahead int) ([]byte, error) {
	b, err := syscall.Mmap(int(f.Fd()), off, n+ahead, syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, err
	}
	return b[:n], nil
}

// Unmap releases memory from MapZeroed or MapFile. Any slice of it is invalid
// afterwards.
func Unmap(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Munmap(b[:cap(b)])
}
