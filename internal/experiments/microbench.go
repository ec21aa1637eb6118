package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/report"
)

// MeasureTable3 re-runs the micro-benchmarks of Section 4.3 on the host and
// returns a costmodel.Params measured here, for anyone who wants simulation
// results calibrated to their machine rather than the paper's 2009 server.
// When measureDisk is false (default in tests and benchmarks) the paper's
// disk bandwidth is kept: a meaningful sequential-write benchmark takes
// seconds and writes hundreds of megabytes.
func MeasureTable3(measureDisk bool, tmpDir string) (costmodel.Params, error) {
	p := costmodel.Default()
	p.MemBandwidth = measureMemBandwidth()
	p.MemLatency = measureMemLatency()
	p.LockOverhead = measureLockOverhead()
	p.BitTest = measureBitTest()
	if measureDisk {
		bw, err := measureDiskBandwidth(tmpDir)
		if err != nil {
			return p, err
		}
		p.DiskBandwidth = bw
	}
	return p, nil
}

// Table3Comparison renders the paper's parameters next to host-measured
// ones.
func Table3Comparison(measured costmodel.Params) *report.TextTable {
	paper := costmodel.Default()
	t := report.NewTextTable()
	t.Header("parameter", "paper (Table 3)", "this host")
	t.Row("Memory Bandwidth (Bmem)",
		fmt.Sprintf("%.1f GB/s", paper.MemBandwidth/1e9),
		fmt.Sprintf("%.1f GB/s", measured.MemBandwidth/1e9))
	t.Row("Memory Latency (Omem)",
		fmt.Sprintf("%.0f ns", paper.MemLatency*1e9),
		fmt.Sprintf("%.0f ns", measured.MemLatency*1e9))
	t.Row("Lock overhead (Olock)",
		fmt.Sprintf("%.0f ns", paper.LockOverhead*1e9),
		fmt.Sprintf("%.0f ns", measured.LockOverhead*1e9))
	t.Row("Bit test/set overhead (Obit)",
		fmt.Sprintf("%.0f ns", paper.BitTest*1e9),
		fmt.Sprintf("%.1f ns", measured.BitTest*1e9))
	t.Row("Disk Bandwidth (Bdisk)",
		fmt.Sprintf("%.0f MB/s", paper.DiskBandwidth/1e6),
		fmt.Sprintf("%.0f MB/s", measured.DiskBandwidth/1e6))
	return t
}

// measureMemBandwidth copies a buffer an order of magnitude larger than
// typical L2 caches, repeatedly, and reports bytes/second (the paper's
// "repeated memcpy calls using aligned data" benchmark).
func measureMemBandwidth() float64 {
	const size = 64 << 20
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // warm up
	const rounds = 4
	start := time.Now()
	for i := 0; i < rounds; i++ {
		copy(dst, src)
	}
	el := time.Since(start).Seconds()
	return float64(size) * rounds / el
}

// measureMemLatency measures the per-call overhead of small scattered copies
// (cache misses + memcpy startup), the paper's mixed sequential/random
// memcpy benchmark.
func measureMemLatency() float64 {
	const size = 64 << 20
	const obj = 512
	buf := make([]byte, size)
	out := make([]byte, obj)
	rng := rand.New(rand.NewSource(1))
	offsets := make([]int, 1<<14)
	for i := range offsets {
		offsets[i] = rng.Intn(size/obj-1) * obj
	}
	start := time.Now()
	for _, off := range offsets {
		copy(out, buf[off:off+obj])
	}
	el := time.Since(start).Seconds()
	perCall := el / float64(len(offsets))
	transfer := float64(obj) / measureQuickBandwidth(buf, out)
	lat := perCall - transfer
	if lat < 0 {
		lat = 0
	}
	return lat
}

func measureQuickBandwidth(buf, out []byte) float64 {
	start := time.Now()
	const rounds = 1 << 14
	for i := 0; i < rounds; i++ {
		copy(out, buf[:len(out)])
	}
	el := time.Since(start).Seconds()
	if el == 0 {
		return 1e12
	}
	return float64(len(out)) * rounds / el
}

// measureLockOverhead times uncontested mutex acquire/release cycles (the
// paper used pthread_spinlock; sync.Mutex is the Go analogue).
func measureLockOverhead() float64 {
	var mu sync.Mutex
	const rounds = 1 << 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // benchmarking the pair is the point
	}
	return time.Since(start).Seconds() / rounds
}

// measureBitTest times the incremental cost of naive dirty-bit counting over
// a bitmap with roughly half the bits set (the paper's benchmark).
func measureBitTest() float64 {
	const bits = 1 << 22
	words := make([]uint64, bits/64)
	rng := rand.New(rand.NewSource(2))
	for i := range words {
		words[i] = rng.Uint64()
	}
	start := time.Now()
	count := 0
	for round := 0; round < 8; round++ {
		for i := 0; i < bits; i++ {
			if words[i>>6]&(1<<(uint(i)&63)) != 0 {
				count++
			}
		}
	}
	el := time.Since(start).Seconds()
	if count == 0 { // keep the loop from being optimized away
		return 0
	}
	return el / (8 * bits)
}

// measureDiskBandwidth writes a large file sequentially with syncs.
func measureDiskBandwidth(dir string) (float64, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, "mmobench.dat")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	const chunk = 4 << 20
	const total = 256 << 20
	buf := make([]byte, chunk)
	start := time.Now()
	for written := 0; written < total; written += chunk {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return float64(total) / time.Since(start).Seconds(), nil
}
