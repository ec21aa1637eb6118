package disk

import (
	"errors"
	"sync"
)

// ErrFaultInjected is returned by a Fault device once its fault has fired —
// the test harness's stand-in for a power cut or a dead medium
// mid-checkpoint.
var ErrFaultInjected = errors.New("disk: injected fault")

// Fault wraps a Device and fails its writes and syncs from one op on. Ops
// are numbered from 0 in the order they reach the device, and op budget is
// the first to fail: a failing write lands the first half of its buffer,
// like a real torn write, and every later write and sync fails outright.
// Reads keep working (the medium survives; the machine crashed). Faults made
// by Share count their ops against one budget, so a sweep over budget
// enumerates every crash point of a backup pair.
type Fault struct {
	dev Device
	b   *faultBudget
}

type faultBudget struct {
	mu    sync.Mutex
	left  int
	fired bool
}

// NewFault wraps dev so that op budget is its first to fail.
func NewFault(dev Device, budget int) *Fault {
	return &Fault{dev: dev, b: &faultBudget{left: budget}}
}

// Share wraps dev in a Fault that counts its ops against f's budget.
func (f *Fault) Share(dev Device) *Fault { return &Fault{dev: dev, b: f.b} }

// Fired reports whether the fault has fired.
func (f *Fault) Fired() bool {
	f.b.mu.Lock()
	defer f.b.mu.Unlock()
	return f.b.fired
}

// take counts one op and reports whether it fails, and whether it is the
// first to.
func (b *faultBudget) take() (fail, first bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fired {
		return true, false
	}
	if b.left == 0 {
		b.fired = true
		return true, true
	}
	b.left--
	return false, false
}

// WriteAt implements Device.
func (f *Fault) WriteAt(p []byte, off int64) (int, error) {
	fail, first := f.b.take()
	if !fail {
		return f.dev.WriteAt(p, off)
	}
	if !first {
		return 0, ErrFaultInjected
	}
	// The torn write: land the prefix, then report the fault. An error from
	// the underlying device is joined in rather than swallowed — a double
	// fault (tear + sick device) must not read as a clean tear, and
	// errors.Is still matches ErrFaultInjected.
	n, err := f.dev.WriteAt(p[:len(p)/2], off)
	if err != nil {
		return n, errors.Join(ErrFaultInjected, err)
	}
	return n, ErrFaultInjected
}

// ReadAt implements Device.
func (f *Fault) ReadAt(p []byte, off int64) (int, error) { return f.dev.ReadAt(p, off) }

// Sync implements Device.
func (f *Fault) Sync() error {
	if fail, _ := f.b.take(); fail {
		return ErrFaultInjected
	}
	return f.dev.Sync()
}

// Close implements Device.
func (f *Fault) Close() error { return f.dev.Close() }

// ReadFault wraps a Device and fails every read — the stand-in for a backup
// whose medium went bad (unreadable sectors) while the machine kept running.
// Writes pass through, so tests can build an image first and then declare it
// unreadable.
type ReadFault struct {
	dev Device
}

// NewReadFault wraps dev with failing reads.
func NewReadFault(dev Device) *ReadFault { return &ReadFault{dev: dev} }

// ReadAt implements Device: every read fails.
func (f *ReadFault) ReadAt(p []byte, off int64) (int, error) { return 0, ErrFaultInjected }

// WriteAt implements Device.
func (f *ReadFault) WriteAt(p []byte, off int64) (int, error) { return f.dev.WriteAt(p, off) }

// Sync implements Device.
func (f *ReadFault) Sync() error { return f.dev.Sync() }

// Close implements Device.
func (f *ReadFault) Close() error { return f.dev.Close() }
