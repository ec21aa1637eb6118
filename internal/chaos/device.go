package chaos

import (
	"errors"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/telemetry"
)

// DeviceFaults selects which fault shapes a chaos Device injects. Zero
// values disable each shape, so the zero DeviceFaults is a transparent
// wrapper.
type DeviceFaults struct {
	// ReadErrProb / WriteErrProb / SyncErrProb fail the matching op with
	// this probability, drawn per op from the device's (seed, site) stream.
	ReadErrProb  float64
	WriteErrProb float64
	SyncErrProb  float64
	// ReadErrEvery / WriteErrEvery fail every Nth op of the kind (1-based;
	// 0 disables). Deterministic nth-op faults compose with the
	// probabilistic ones — either firing injects.
	ReadErrEvery  int64
	WriteErrEvery int64
	// WriteBudget, when positive, is a byte budget after which the device
	// goes permanently dead for writes and syncs — the power-cut shape
	// disk.Fault models, here at a schedule-chosen point. The write that
	// crosses the boundary is torn at the budget.
	WriteBudget int64
	// TornWrites makes injected write errors land a schedule-chosen prefix
	// of the buffer on the underlying device before failing, instead of
	// dropping the write whole — a torn sector write at an arbitrary
	// offset.
	TornWrites bool
	// BitFlipOnSyncFail corrupts one bit of a not-yet-synced byte range on
	// the underlying device when a sync fault fires: the medium lost cached
	// writes. Safe against the checkpoint protocol's invariant — a complete
	// header only ever covers synced data — which is exactly what the
	// harness is probing.
	BitFlipOnSyncFail bool
	// StallProb injects a latency stall of Stall before the op completes
	// (default 1ms when Stall is zero). Stalls are delays, not errors.
	StallProb float64
	Stall     time.Duration
}

// maxUnsyncedSpans bounds the unsynced-write tracking; beyond it, new spans
// fold into the last entry (the tracking only needs to cover *some* unsynced
// bytes to pick a bit-flip target, not an exact set).
const maxUnsyncedSpans = 64

type span struct{ off, end int64 }

// Device wraps a disk.Device with schedule-driven fault injection. All
// decisions come from the (seed, site) stream, so two runs at the same key
// inject the same fault at the same per-site operation index.
type Device struct {
	dev    disk.Device
	site   string
	faults DeviceFaults
	sleep  func(time.Duration) // injectable for tests; default time.Sleep
	tel    *telemetry.VecCounter

	mu       sync.Mutex
	rng      *Rand
	reads    int64
	writes   int64
	syncs    int64
	injected int64
	spent    int64 // bytes written against WriteBudget
	dead     bool  // budget exhausted: writes and syncs fail permanently
	unsynced []span
}

// WrapDevice builds the injector for one site. The same (seed, site) always
// yields the same decision stream.
func WrapDevice(dev disk.Device, seed int64, site string, faults DeviceFaults) *Device {
	if faults.Stall <= 0 {
		faults.Stall = time.Millisecond
	}
	return &Device{
		dev:    dev,
		site:   site,
		faults: faults,
		sleep:  time.Sleep,
		tel:    telInjected.With(site),
		rng:    NewRand(seed, site),
	}
}

// SetSleep replaces the stall clock (tests stub it to count stalls without
// waiting).
func (d *Device) SetSleep(fn func(time.Duration)) { d.sleep = fn }

// Injected returns how many faults this device has injected.
func (d *Device) Injected() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injected
}

// Ops returns the per-kind operation counts (reads, writes, syncs).
func (d *Device) Ops() (reads, writes, syncs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes, d.syncs
}

// err builds the typed fault for the op at index n.
func (d *Device) err(op string, n int64) error {
	d.injected++
	d.tel.Inc()
	return &Error{Site: d.site, Op: op, N: n}
}

// deadErr is the typed fault a dead device (WriteBudget exhausted) answers
// every later write and sync with. The death itself was the injected fault
// and was counted once, by the write that crossed the budget; how many ops
// run into the dead device afterwards depends on how the caller's
// goroutines race to it, so they are deliberately not counted — Injected
// stays a function of (seed, site).
func (d *Device) deadErr(op string, n int64) error {
	return &Error{Site: d.site, Op: op, N: n}
}

// ReadAt implements disk.Device.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.reads++
	n := d.reads
	stall := d.faults.StallProb > 0 && d.rng.Float64() < d.faults.StallProb
	fail := d.faults.ReadErrEvery > 0 && n%d.faults.ReadErrEvery == 0
	if d.faults.ReadErrProb > 0 && d.rng.Float64() < d.faults.ReadErrProb {
		fail = true
	}
	var err error
	if fail {
		err = d.err("read", n)
	}
	d.mu.Unlock()
	if stall {
		d.sleep(d.faults.Stall)
	}
	if err != nil {
		return 0, err
	}
	return d.dev.ReadAt(p, off)
}

// WriteAt implements disk.Device. An injected write error optionally tears:
// a schedule-chosen prefix reaches the underlying device (and is recorded as
// unsynced), then the typed fault is returned — joined with any error the
// underlying device raised on the partial write, so a double fault stays
// visible.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.writes++
	n := d.writes
	stall := d.faults.StallProb > 0 && d.rng.Float64() < d.faults.StallProb
	if d.dead {
		d.mu.Unlock()
		return 0, d.deadErr("write", n)
	}
	fail := d.faults.WriteErrEvery > 0 && n%d.faults.WriteErrEvery == 0
	if d.faults.WriteErrProb > 0 && d.rng.Float64() < d.faults.WriteErrProb {
		fail = true
	}
	tear := int64(len(p)) // bytes that reach the device
	if fail && d.faults.TornWrites && len(p) > 0 {
		tear = int64(d.rng.Intn(len(p))) // strict prefix: the tail is lost
	} else if fail {
		tear = 0
	}
	if d.faults.WriteBudget > 0 {
		if remaining := d.faults.WriteBudget - d.spent; tear >= remaining {
			tear, fail, d.dead = remaining, true, true
		}
	}
	d.spent += tear
	var ierr error
	if fail {
		ierr = d.err("write", n)
	}
	if tear > 0 {
		d.noteUnsynced(off, off+tear)
	}
	d.mu.Unlock()
	if stall {
		d.sleep(d.faults.Stall)
	}
	if !fail {
		return d.dev.WriteAt(p, off)
	}
	var wn int
	var werr error
	if tear > 0 {
		wn, werr = d.dev.WriteAt(p[:tear], off)
	}
	if werr != nil {
		return wn, errors.Join(ierr, werr)
	}
	return wn, ierr
}

// Sync implements disk.Device. On an injected sync failure the unsynced
// write set stays dirty; with BitFlipOnSyncFail one bit of it is corrupted
// on the underlying device — cached writes the medium never made durable.
func (d *Device) Sync() error {
	d.mu.Lock()
	d.syncs++
	n := d.syncs
	stall := d.faults.StallProb > 0 && d.rng.Float64() < d.faults.StallProb
	if d.dead {
		d.mu.Unlock()
		return d.deadErr("sync", n)
	}
	fail := d.faults.SyncErrProb > 0 && d.rng.Float64() < d.faults.SyncErrProb
	var ierr error
	var flip *span
	var flipByte int64
	var flipBit uint
	if fail {
		ierr = d.err("sync", n)
		if d.faults.BitFlipOnSyncFail && len(d.unsynced) > 0 {
			s := d.unsynced[d.rng.Intn(len(d.unsynced))]
			if s.end > s.off {
				flip = &s
				flipByte = s.off + int64(d.rng.Intn(int(s.end-s.off)))
				flipBit = uint(d.rng.Intn(8))
			}
		}
	}
	d.mu.Unlock()
	if stall {
		d.sleep(d.faults.Stall)
	}
	if fail {
		if flip != nil {
			var b [1]byte
			if _, err := d.dev.ReadAt(b[:], flipByte); err == nil {
				b[0] ^= 1 << flipBit
				d.dev.WriteAt(b[:], flipByte) //nolint:errcheck // corruption is best-effort
			}
		}
		return ierr
	}
	err := d.dev.Sync()
	if err == nil {
		d.mu.Lock()
		d.unsynced = d.unsynced[:0]
		d.mu.Unlock()
	}
	return err
}

// Close implements disk.Device.
func (d *Device) Close() error { return d.dev.Close() }

// noteUnsynced records [off, end) as written-but-not-synced. Called under mu.
func (d *Device) noteUnsynced(off, end int64) {
	if len(d.unsynced) >= maxUnsyncedSpans {
		last := &d.unsynced[len(d.unsynced)-1]
		if off < last.off {
			last.off = off
		}
		if end > last.end {
			last.end = end
		}
		return
	}
	d.unsynced = append(d.unsynced, span{off, end})
}
