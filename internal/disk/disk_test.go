package disk

import (
	"bytes"
	"errors"
	"os"
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

func TestBackupWriteRunAndReadRun(t *testing.T) {
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
	if err := b.ReadRun(0, buf); err != nil {
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
	if err := b.ReadRun(0, make([]byte, 7)); err == nil {
		t.Error("partial-object read accepted")
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
		if err := b.ReadRun(0, got); err != nil {
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
// from a device that may hold anything. decodeHeader never panics, checks a
// populated map's length against the header room before it reads the map,
// and a header it accepts, either version, re-encodes to the bytes it came
// from.
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(Header{Objects: 4, ObjSize: 64, Epoch: 9, AsOfTick: 41, Complete: true}.encode(Populated{}))
	f.Add(Header{Objects: 1, ObjSize: 1}.encode(Populated{})[:headerLen])
	f.Add(Header{Epoch: 1}.encode(Populated{})[:headerLen-1])
	f.Add(append([]byte("MMCK\x02"), make([]byte, 40)...))
	f.Add(Header{Objects: 640, ObjSize: 8, Epoch: 2, Complete: true}.encode(newPopulated(640, []uint64{0b101})))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, p, err := decodeHeader(b)
		if err != nil {
			if h != (Header{}) || !p.Full() {
				t.Fatalf("rejected header decoded as %+v, map %v", h, p)
			}
			return
		}
		n := headerLen
		if !p.Full() {
			n = mapOff + len(p.bits)
		}
		if enc := h.encode(p); !bytes.Equal(enc[:n], b[:n]) {
			t.Fatalf("header %+v with map %v does not re-encode to its bytes", h, p)
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

// TestHeaderPopulatedMap: a partial map round-trips through a v2 header one
// word per bit; a table past the header's 3,776 bits coarsens to the
// smallest power-of-two grain that fits, covering whole groups of words; and
// a map with every bit set, however given, is the full map.
func TestHeaderPopulatedMap(t *testing.T) {
	check := func(objects int, words []uint64, has func(w int) bool) Populated {
		t.Helper()
		b, err := NewBackup(NewMem(), objects, 8)
		if err != nil {
			t.Fatal(err)
		}
		h := Header{Epoch: 4, AsOfTick: 17, Complete: true}
		if err := b.WriteHeaderMap(h, words); err != nil {
			t.Fatal(err)
		}
		got, p, err := b.ReadHeaderMap()
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != h.Epoch || got.AsOfTick != h.AsOfTick || !got.Complete {
			t.Fatalf("header round trip: %+v", got)
		}
		for w := 0; w < Words(objects); w++ {
			if p.Has(w) != has(w) {
				t.Fatalf("%d objects: word %d populated %v, want %v", objects, w, p.Has(w), has(w))
			}
		}
		return p
	}
	// 10 words, 3 populated: one word per bit.
	if p := check(640, []uint64{0b10_0000_0101}, func(w int) bool { return w == 0 || w == 2 || w == 9 }); p.grain != 0 {
		t.Errorf("10-word map has grain %d, want 0", p.grain)
	}
	// 10,000 words: 4 words per bit (2,500 bits); word 4097 populates its
	// group of 4096..4099.
	words := make([]uint64, (10_000+63)/64)
	words[4097>>6] |= 1 << (4097 & 63)
	p := check(64*10_000, words, func(w int) bool { return w >= 4096 && w < 4100 })
	if p.grain != 2 || len(p.bits) != 2500/8+1 {
		t.Errorf("10,000-word map: grain %d, %d bytes; want grain 2, %d bytes", p.grain, len(p.bits), 2500/8+1)
	}
	// Every word populated, and the 3,777-word table whose last bit covers
	// one word of two: both full.
	all := func(int) bool { return true }
	if p := check(640, []uint64{1<<10 - 1}, all); !p.Full() {
		t.Error("a map of every word is not the full map")
	}
	words = make([]uint64, (3777+63)/64)
	for w := 0; w < 3777; w++ {
		words[w>>6] |= 1 << (w & 63)
	}
	if p := check(64*3777, words, all); !p.Full() {
		t.Error("a coarsened map of every word is not the full map")
	}
	if p := check(640, nil, all); !p.Full() {
		t.Error("a nil word map is not the full map")
	}
}

// TestFullMapHeaderIsVersion1: the checked-in image was written before
// headers carried a populated map. Its header decodes as the full map, and
// the header of a fully populated image today is the same 512 bytes.
func TestFullMapHeaderIsVersion1(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "backup-v1.img"))
	if err != nil {
		t.Fatal(err)
	}
	h, p, err := decodeHeader(img[:HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	if !p.Full() || !h.Complete || h.Objects != 128 || h.ObjSize != 64 {
		t.Fatalf("checked-in image: header %+v, full map %v", h, p.Full())
	}
	dev := NewMem()
	b, err := NewBackup(dev, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteHeaderMap(h, []uint64{0b11}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, HeaderSize)
	if _, err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img[:HeaderSize]) {
		t.Error("a fully populated image's header differs from the version-1 header")
	}
}
