package disk

import (
	"errors"
	"sync"
)

// ErrFaultInjected is returned by a Fault device once its write budget is
// exhausted — the test harness's stand-in for a power cut mid-checkpoint.
var ErrFaultInjected = errors.New("disk: injected fault")

// Fault wraps a Device and fails every write after a byte budget is spent.
// Reads keep working (the medium survives; the machine crashed).
type Fault struct {
	dev Device

	mu     sync.Mutex
	budget int64
	dead   bool
}

// NewFault wraps dev with a write budget of budget bytes.
func NewFault(dev Device, budget int64) *Fault {
	return &Fault{dev: dev, budget: budget}
}

// WriteAt implements Device: it consumes budget and fails once exhausted.
// A write that crosses the boundary is applied partially — like a real torn
// write.
func (f *Fault) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return 0, ErrFaultInjected
	}
	allowed := int64(len(p))
	if allowed > f.budget {
		allowed = f.budget
		f.dead = true
	}
	f.budget -= allowed
	f.mu.Unlock()
	if allowed < int64(len(p)) {
		// The torn partial write: land the prefix, then report the fault.
		// An error from the underlying device is joined in rather than
		// swallowed — a double fault (tear + sick device) must not read as
		// a clean tear, and errors.Is still matches ErrFaultInjected.
		var n int
		if allowed > 0 {
			var werr error
			if n, werr = f.dev.WriteAt(p[:allowed], off); werr != nil {
				return n, errors.Join(ErrFaultInjected, werr)
			}
		}
		return n, ErrFaultInjected
	}
	return f.dev.WriteAt(p, off)
}

// ReadAt implements Device.
func (f *Fault) ReadAt(p []byte, off int64) (int, error) { return f.dev.ReadAt(p, off) }

// Sync implements Device; it fails after the fault fires.
func (f *Fault) Sync() error {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
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
