package disk

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// vecDevices returns one of each device kind that should accept vectored
// writes, keyed by name.
func vecDevices(t *testing.T) map[string]Device {
	t.Helper()
	f, err := OpenFile(filepath.Join(t.TempDir(), "dev.img"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]Device{
		"file":          f,
		"mem":           NewMem(),
		"throttle(mem)": NewThrottle(NewMem(), 0),
		"fault":         NewFault(NewMem(), 1<<20), // exercises the fallback path
	}
}

func TestWriteVAtRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, dev := range vecDevices(t) {
		// Scattered buffer sizes, including an empty one.
		var bufs [][]byte
		var want []byte
		for _, n := range []int{512, 0, 3, 4096, 1, 777} {
			b := make([]byte, n)
			rng.Read(b)
			bufs = append(bufs, b)
			want = append(want, b...)
		}
		const off = 129
		n, err := WriteVAt(dev, bufs, off)
		if err != nil {
			t.Fatalf("%s: WriteVAt: %v", name, err)
		}
		if n != len(want) {
			t.Fatalf("%s: wrote %d bytes, want %d", name, n, len(want))
		}
		got := make([]byte, len(want))
		if _, err := dev.ReadAt(got, off); err != nil {
			t.Fatalf("%s: ReadAt: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: vectored write round trip mismatch", name)
		}
	}
}

// TestWriteVAtManyBuffers crosses the IOV_MAX batching boundary on the file
// device.
func TestWriteVAtManyBuffers(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "many.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var bufs [][]byte
	var want []byte
	for i := 0; i < 2500; i++ {
		b := []byte{byte(i), byte(i >> 8)}
		bufs = append(bufs, b)
		want = append(want, b...)
	}
	n, err := WriteVAt(f, bufs, 7)
	if err != nil || n != len(want) {
		t.Fatalf("WriteVAt = %d, %v; want %d bytes", n, err, len(want))
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("IOV_MAX-crossing vectored write mismatch")
	}
}

func TestWriteRunVec(t *testing.T) {
	const n, size = 64, 16
	b, err := NewBackup(NewMem(), n, size)
	if err != nil {
		t.Fatal(err)
	}
	// Two and a half objects is not a whole run.
	if err := b.WriteRunVec(0, [][]byte{make([]byte, size), make([]byte, size+size/2)}); err == nil {
		t.Error("partial-object vectored run accepted")
	}
	if err := b.WriteRunVec(62, [][]byte{make([]byte, 4*size)}); err == nil {
		t.Error("out-of-bounds vectored run accepted")
	}
	one := bytes.Repeat([]byte{0xAB}, 2*size)
	two := bytes.Repeat([]byte{0xCD}, size)
	if err := b.WriteRunVec(5, [][]byte{one, two}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*size)
	if err := b.ReadRun(0, got); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, one...), two...)
	if !bytes.Equal(got[5*size:8*size], want) {
		t.Error("vectored run bytes misplaced")
	}
}

// TestConcurrentWriteRuns is the parallel-flusher contract: goroutines
// writing disjoint runs of one backup concurrently must land every object
// intact, on both file and memory devices.
func TestConcurrentWriteRuns(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "conc.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, dev := range map[string]Device{"file": f, "mem": NewMem(), "throttle": NewThrottle(NewMem(), 1e9)} {
		const n, size, workers = 512, 64, 8
		b, err := NewBackup(dev, n, size)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n*size)
		rand.New(rand.NewSource(2)).Read(want)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		per := n / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := w * per
				// Interleave runs and vectored runs in sub-chunks.
				for off := 0; off < per; off += 16 {
					start := lo + off
					region := want[start*size : (start+16)*size]
					if off%32 == 0 {
						errs[w] = b.WriteRun(start, region)
					} else {
						errs[w] = b.WriteRunVec(start, [][]byte{region[:8*size], region[8*size:]})
					}
					if errs[w] != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s: worker %d: %v", name, w, err)
			}
		}
		got := make([]byte, n*size)
		if err := b.ReadRun(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: concurrent disjoint runs corrupted the image", name)
		}
	}
}

func TestReadVAtRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	want := make([]byte, 8192)
	rng.Read(want)
	for name, dev := range vecDevices(t) {
		const off = 257
		if _, err := dev.WriteAt(want, off); err != nil {
			t.Fatalf("%s: WriteAt: %v", name, err)
		}
		// Scattered destination sizes, including an empty one.
		var bufs [][]byte
		total := 0
		for _, n := range []int{512, 0, 3, 4096, 1, 777} {
			bufs = append(bufs, make([]byte, n))
			total += n
		}
		n, err := ReadVAt(dev, bufs, off)
		if err != nil {
			t.Fatalf("%s: ReadVAt: %v", name, err)
		}
		if n != total {
			t.Fatalf("%s: read %d bytes, want %d", name, n, total)
		}
		var got []byte
		for _, b := range bufs {
			got = append(got, b...)
		}
		if !bytes.Equal(got, want[:total]) {
			t.Errorf("%s: vectored read round trip mismatch", name)
		}
	}
}

// TestReadVAtManyBuffers crosses the IOV_MAX batching boundary on the file
// device.
func TestReadVAtManyBuffers(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "manyread.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make([]byte, 5000)
	rand.New(rand.NewSource(4)).Read(want)
	if _, err := f.WriteAt(want, 7); err != nil {
		t.Fatal(err)
	}
	var bufs [][]byte
	for i := 0; i < 2500; i++ {
		bufs = append(bufs, make([]byte, 2))
	}
	n, err := ReadVAt(f, bufs, 7)
	if err != nil || n != len(want) {
		t.Fatalf("ReadVAt = %d, %v; want %d bytes", n, err, len(want))
	}
	var got []byte
	for _, b := range bufs {
		got = append(got, b...)
	}
	if !bytes.Equal(got, want) {
		t.Error("IOV_MAX-crossing vectored read mismatch")
	}
}

func TestReadRunVec(t *testing.T) {
	const n, size = 64, 16
	b, err := NewBackup(NewMem(), n, size)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xEE}, 3*size)
	if err := b.WriteRun(5, want); err != nil {
		t.Fatal(err)
	}
	// Two and a half objects is not a whole run.
	if err := b.ReadRunVec(0, [][]byte{make([]byte, size), make([]byte, size+size/2)}); err == nil {
		t.Error("partial-object vectored run accepted")
	}
	if err := b.ReadRunVec(62, [][]byte{make([]byte, 4*size)}); err == nil {
		t.Error("out-of-bounds vectored run accepted")
	}
	one := make([]byte, 2*size)
	two := make([]byte, size)
	if err := b.ReadRunVec(5, [][]byte{one, two}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(append([]byte{}, one...), two...), want) {
		t.Error("vectored run read bytes misplaced")
	}
	whole := make([]byte, 3*size)
	if err := b.ReadRun(5, whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, want) {
		t.Error("contiguous run read mismatch")
	}
}

// TestConcurrentReadRuns is the parallel-restore contract: goroutines
// reading disjoint runs of one backup concurrently must each see their
// objects intact.
func TestConcurrentReadRuns(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "concread.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, dev := range map[string]Device{"file": f, "mem": NewMem(), "throttle": NewThrottle(NewMem(), 1e9)} {
		const n, size, workers = 512, 64, 8
		b, err := NewBackup(dev, n, size)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n*size)
		rand.New(rand.NewSource(5)).Read(want)
		if err := b.WriteRun(0, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n*size)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		per := n / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := w * per
				region := got[lo*size : (lo+per)*size]
				// Interleave plain and vectored runs in sub-chunks.
				if w%2 == 0 {
					errs[w] = b.ReadRun(lo, region)
				} else {
					errs[w] = b.ReadRunVec(lo, [][]byte{region[:per/2*size], region[per/2*size:]})
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s: worker %d: %v", name, w, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: concurrent disjoint run reads corrupted the data", name)
		}
	}
}
