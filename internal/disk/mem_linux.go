//go:build linux && !race

package disk

import "syscall"

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

// Unmap releases memory from MapZeroed. Any slice of it is invalid afterwards.
func Unmap(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Munmap(b[:cap(b)])
}
