package disk

import (
	"bytes"
	"errors"
	"testing"
)

// brokenDev fails every write with its own error; reads and sync succeed.
type brokenDev struct {
	err error
}

func (d *brokenDev) ReadAt(p []byte, off int64) (int, error)  { return len(p), nil }
func (d *brokenDev) WriteAt(p []byte, off int64) (int, error) { return 0, d.err }
func (d *brokenDev) Sync() error                              { return nil }
func (d *brokenDev) Close() error                             { return nil }

func TestFaultTornWritePropagatesDeviceError(t *testing.T) {
	devErr := errors.New("disk: medium error")
	f := NewFault(&brokenDev{err: devErr}, 0)
	n, err := f.WriteAt(make([]byte, 8), 0)
	if n != 0 {
		t.Fatalf("torn write over a broken device landed %d bytes, want 0", n)
	}
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("double fault lost the injected marker: %v", err)
	}
	if !errors.Is(err, devErr) {
		t.Fatalf("double fault swallowed the device error: %v", err)
	}
}

func TestFaultTornWriteCleanTear(t *testing.T) {
	mem := NewMem()
	f := NewFault(mem, 0)
	n, err := f.WriteAt([]byte{1, 2, 3, 4, 5, 6}, 0)
	if n != 3 {
		t.Fatalf("tear landed %d bytes, want 3", n)
	}
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("got %v, want ErrFaultInjected", err)
	}
	// A clean tear reports only the injected fault, nothing joined.
	if errs, ok := err.(interface{ Unwrap() []error }); ok && len(errs.Unwrap()) > 1 {
		t.Fatalf("clean tear reported a joined error: %v", err)
	}
	got := make([]byte, 6)
	if _, err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 0, 0, 0}) {
		t.Fatalf("device holds %v after the tear, want the first half only", got)
	}
}

// TestFaultSharedBudgetCountsEveryOp: writes and syncs on both devices of a
// shared budget count as one sequence, the op at the budget is the first to
// fail, and every write and sync after it fails while reads still work.
func TestFaultSharedBudgetCountsEveryOp(t *testing.T) {
	a := NewFault(NewMem(), 3)
	b := a.Share(NewMem())
	if _, err := a.WriteAt([]byte{1, 2}, 0); err != nil { // op 0
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil { // op 1
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte{3, 4}, 0); err != nil { // op 2
		t.Fatal(err)
	}
	if a.Fired() || b.Fired() {
		t.Fatal("fault fired before its op")
	}
	if err := a.Sync(); !errors.Is(err, ErrFaultInjected) { // op 3
		t.Fatalf("op 3: got %v, want ErrFaultInjected", err)
	}
	if !a.Fired() || !b.Fired() {
		t.Fatal("a shared budget's devices disagree on whether the fault fired")
	}
	if n, err := b.WriteAt([]byte{5, 6}, 0); n != 0 || !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("write after the fault: n=%d err=%v, want nothing landed", n, err)
	}
	if err := b.Sync(); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("sync after the fault: %v", err)
	}
	got := make([]byte, 2)
	if _, err := b.ReadAt(got, 0); err != nil || !bytes.Equal(got, []byte{3, 4}) {
		t.Fatalf("read after the fault: %v %v, want [3 4]", got, err)
	}
}
