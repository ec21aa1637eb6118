package disk

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemDevice(t *testing.T) {
	d := NewMem()
	if _, err := d.WriteAt([]byte("hello"), 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 20)
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:10], make([]byte, 10)) {
		t.Error("unwritten prefix not zero")
	}
	if string(buf[10:15]) != "hello" {
		t.Errorf("read back %q", buf[10:15])
	}
	if d.Len() != 15 {
		t.Errorf("Len = %d, want 15", d.Len())
	}
	if _, err := d.WriteAt([]byte("x"), -1); err == nil {
		t.Error("negative write offset accepted")
	}
	if _, err := d.ReadAt(buf, -1); err == nil {
		t.Error("negative read offset accepted")
	}
	if err := d.Sync(); err != nil {
		t.Error(err)
	}
	if err := d.Close(); err != nil {
		t.Error(err)
	}
}

func TestMemReadPastEndReturnsZeros(t *testing.T) {
	d := NewMem()
	buf := []byte{1, 2, 3}
	if _, err := d.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Errorf("read past end = %v, want zeros", buf)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt([]byte("abc"), 512); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := d.ReadAt(buf, 512); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Errorf("read back %q", buf)
	}
}

func TestThrottlePacing(t *testing.T) {
	// Virtual clock: verify the throttle schedules exactly bytes/rate.
	var virtual time.Time
	var slept time.Duration
	th := NewThrottle(NewMem(), 1000) // 1000 B/s
	th.now = func() time.Time { return virtual }
	th.sleep = func(d time.Duration) { slept += d; virtual = virtual.Add(d) }

	if _, err := th.WriteAt(make([]byte, 500), 0); err != nil {
		t.Fatal(err)
	}
	if want := 500 * time.Millisecond; slept != want {
		t.Errorf("slept %v after 500B at 1000B/s, want %v", slept, want)
	}
	if _, err := th.ReadAt(make([]byte, 250), 0); err != nil {
		t.Fatal(err)
	}
	if want := 750 * time.Millisecond; slept != want {
		t.Errorf("cumulative sleep %v, want %v (reads consume budget too)", slept, want)
	}
}

func TestThrottleZeroRateUnlimited(t *testing.T) {
	th := NewThrottle(NewMem(), 0)
	th.sleep = func(time.Duration) { t.Error("unlimited throttle slept") }
	if _, err := th.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
}

func TestThrottleConcurrentAccounting(t *testing.T) {
	var mu sync.Mutex
	var virtual time.Time
	th := NewThrottle(NewMem(), 1e6)
	th.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return virtual }
	var totalSleep time.Duration
	th.sleep = func(d time.Duration) {
		mu.Lock()
		totalSleep += d
		virtual = virtual.Add(d)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				th.WriteAt(make([]byte, 1000), int64(i*100000+j*1000)) //nolint:errcheck
			}
		}(i)
	}
	wg.Wait()
	// 40 KB at 1 MB/s = 40ms of budget; cumulative sleep must be at least
	// close to that (individual sleeps may overlap in virtual time).
	if totalSleep < 30*time.Millisecond {
		t.Errorf("total sleep %v, want ≥30ms worth of pacing", totalSleep)
	}
}

func TestBackupHeaderRoundTrip(t *testing.T) {
	b, err := NewBackup(NewMem(), 100, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadHeader(); err != ErrNoImage {
		t.Errorf("fresh device header error = %v, want ErrNoImage", err)
	}
	h := Header{Epoch: 7, AsOfTick: 1234, Complete: true}
	if err := b.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.AsOfTick != 1234 || !got.Complete {
		t.Errorf("header round trip: %+v", got)
	}
	if got.Objects != 100 || got.ObjSize != 512 {
		t.Errorf("geometry not stamped: %+v", got)
	}
}

func TestBackupHeaderCorruptionDetected(t *testing.T) {
	dev := NewMem()
	b, _ := NewBackup(dev, 10, 64)
	if err := b.WriteHeader(Header{Epoch: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the checksummed region.
	var one [1]byte
	dev.ReadAt(one[:], 13) //nolint:errcheck
	one[0] ^= 0xFF
	dev.WriteAt(one[:], 13) //nolint:errcheck
	if _, err := b.ReadHeader(); err != ErrNoImage {
		t.Errorf("corrupt header error = %v, want ErrNoImage", err)
	}
}

func TestBackupGeometryMismatch(t *testing.T) {
	dev := NewMem()
	b, _ := NewBackup(dev, 10, 64)
	if err := b.WriteHeader(Header{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	other, _ := NewBackup(dev, 20, 64)
	if _, err := other.ReadHeader(); err == nil {
		t.Error("geometry mismatch not detected")
	}
}

func TestBackupWriteRunAndReadInto(t *testing.T) {
	const n, size = 8, 16
	b, _ := NewBackup(NewMem(), n, size)
	// Write objects 2,3 as one run and 6 alone.
	run := bytes.Repeat([]byte{0xAB}, 2*size)
	if err := b.WriteRun(2, run); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteRun(6, bytes.Repeat([]byte{0xCD}, size)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n*size)
	if err := b.ReadInto(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := byte(0)
		if i == 2 || i == 3 {
			want = 0xAB
		}
		if i == 6 {
			want = 0xCD
		}
		for j := 0; j < size; j++ {
			if buf[i*size+j] != want {
				t.Fatalf("object %d byte %d = %#x, want %#x", i, j, buf[i*size+j], want)
			}
		}
	}
}

func TestBackupWriteRunValidation(t *testing.T) {
	b, _ := NewBackup(NewMem(), 4, 16)
	if err := b.WriteRun(0, make([]byte, 10)); err == nil {
		t.Error("partial-object run accepted")
	}
	if err := b.WriteRun(3, make([]byte, 32)); err == nil {
		t.Error("run past end accepted")
	}
	if err := b.WriteRun(-1, make([]byte, 16)); err == nil {
		t.Error("negative run accepted")
	}
	if err := b.ReadInto(make([]byte, 7)); err == nil {
		t.Error("short ReadInto buffer accepted")
	}
}

func TestNewBackupValidation(t *testing.T) {
	if _, err := NewBackup(NewMem(), 0, 512); err == nil {
		t.Error("zero objects accepted")
	}
	if _, err := NewBackup(NewMem(), 10, 0); err == nil {
		t.Error("zero object size accepted")
	}
}

// Property: any sequence of run writes is readable back object-for-object.
func TestQuickBackupWrites(t *testing.T) {
	f := func(writes []uint16, fill byte) bool {
		const n, size = 32, 8
		b, _ := NewBackup(NewMem(), n, size)
		want := make([]byte, n*size)
		for wi, w := range writes {
			start := int(w) % n
			length := 1 + (int(w)>>5)%3
			if start+length > n {
				length = n - start
			}
			val := fill + byte(wi)
			data := bytes.Repeat([]byte{val}, length*size)
			if err := b.WriteRun(start, data); err != nil {
				return false
			}
			copy(want[start*size:], data)
		}
		got := make([]byte, n*size)
		if err := b.ReadInto(got); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadHeaderFreshFileIsNoImage(t *testing.T) {
	// A never-written file device is shorter than one header: that is "no
	// image", not a device failure.
	f, err := OpenFile(filepath.Join(t.TempDir(), "fresh.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := NewBackup(f, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadHeader(); err != ErrNoImage {
		t.Errorf("fresh file header read = %v, want ErrNoImage", err)
	}
}

func TestReadHeaderDeviceErrorPropagates(t *testing.T) {
	// A real medium failure must not be mistaken for a fresh image.
	mem := NewMem()
	b, err := NewBackup(mem, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteHeader(Header{Epoch: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	fb, err := NewBackup(NewReadFault(mem), 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fb.ReadHeader()
	if err == nil || err == ErrNoImage {
		t.Errorf("faulted header read = %v, want a propagated device error", err)
	}
	if !errors.Is(err, ErrFaultInjected) {
		t.Errorf("faulted header read = %v, want wrapped ErrFaultInjected", err)
	}
}

// FuzzDecodeHeader: the image header is the first thing every restore reads,
// from a device that may hold anything. decodeHeader never panics, and a
// header it accepts re-encodes to the bytes it came from.
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(Header{Objects: 4, ObjSize: 64, Epoch: 9, AsOfTick: 41, Complete: true}.encode())
	f.Add(Header{Objects: 1, ObjSize: 1}.encode()[:headerLen])
	f.Add(Header{Epoch: 1}.encode()[:headerLen-1])
	f.Add(append([]byte("MMCK\x02"), make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := decodeHeader(b)
		if err != nil {
			if h != (Header{}) {
				t.Fatalf("rejected header decoded as %+v", h)
			}
			return
		}
		if enc := h.encode(); !bytes.Equal(enc[:headerLen], b[:headerLen]) {
			t.Fatalf("header %+v does not re-encode to its bytes", h)
		}
	})
}

// TestBackupBlank: a backup is blank while its device holds no byte past the
// header — a fresh file or a header alone, also behind a throttle — and not
// once one stray byte lies past it. A Mem device, whose reads past its end
// return zeros, and an unreadable device are never blank.
func TestBackupBlank(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "img"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blank := func(dev Device) bool {
		b, err := NewBackup(dev, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		return b.Blank()
	}
	if !blank(f) || !blank(NewThrottle(f, 1e6)) {
		t.Error("empty file is not blank")
	}
	b, _ := NewBackup(f, 4, 64)
	if err := b.WriteHeader(Header{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if !blank(f) {
		t.Error("header-only file is not blank")
	}
	if _, err := f.WriteAt([]byte{0}, HeaderSize); err != nil {
		t.Fatal(err)
	}
	if blank(f) || blank(NewThrottle(f, 1e6)) {
		t.Error("file with a byte past its header is blank")
	}
	if blank(NewMem()) {
		t.Error("Mem device is blank")
	}
	g, err := OpenFile(filepath.Join(t.TempDir(), "img"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if blank(NewReadFault(g)) {
		t.Error("unreadable device is blank")
	}
}
