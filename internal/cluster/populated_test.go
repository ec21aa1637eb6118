package cluster

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/engine"
)

// imageReads counts, per node directory, the bytes read past the image
// headers of the backups a DeviceFactory opens.
type imageReads struct {
	mu sync.Mutex
	n  map[string]int64
}

func (r *imageReads) factory(path string) (disk.Device, error) {
	f, err := disk.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &countingDev{Device: f, r: r, node: filepath.Dir(path)}, nil
}

func (r *imageReads) take(node string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n[node]
	delete(r.n, node)
	return n
}

type countingDev struct {
	disk.Device
	r    *imageReads
	node string
}

func (d *countingDev) ReadAt(p []byte, off int64) (int, error) {
	if off >= disk.HeaderSize {
		d.r.mu.Lock()
		d.r.n[d.node] += int64(len(p))
		d.r.mu.Unlock()
	}
	return d.Device.ReadAt(p, off)
}

// TestClusterRestoreReadsOwnedWords: a node's images hold only its own
// partition, so its restore reads its owned bitmap words and at most one
// more (the last object, which extends a first image to full length), not
// the whole world's image. Both recoveries of crash → Recover →
// CheckpointWorld → 20 ticks → crash → Recover hold to that bound — the
// reopened engines keep their maps tight — and end byte-identical to the
// single-node reference.
func TestClusterRestoreReadsOwnedWords(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	reads := &imageReads{n: map[string]int64{}}
	const perTick = 250
	tick := 0
	run := func(c *Cluster, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Tick(testBatch(tab, tick, perTick)); err != nil {
				t.Fatal(err)
			}
			tick++
		}
	}
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2, DeviceFactory: reads.factory})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 2 {
		t.Fatalf("%d nodes, want 2", len(c.Nodes()))
	}
	run(c, 10)
	if _, err := c.CheckpointWorld(); err != nil {
		t.Fatal(err)
	}
	run(c, 10)
	for round := 1; round <= 2; round++ {
		if err := c.Crash(); err != nil {
			t.Fatal(err)
		}
		for i := range c.Nodes() {
			reads.take(NodeDir(dir, i))
		}
		c, _, err = Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, DeviceFactory: reads.factory})
		if err != nil {
			t.Fatal(err)
		}
		owners := c.Routing().Current().Owners
		for i := range c.Nodes() {
			owned := 0
			for _, o := range owners {
				if o == i {
					owned++
				}
			}
			got, bound := reads.take(NodeDir(dir, i)), int64((owned+1)*64*tab.ObjSize)
			if got == 0 || got > bound {
				t.Errorf("recovery %d: node %d read %d image bytes, want 1..%d (%d owned words + 1)",
					round, i, got, bound, owned)
			}
		}
		if !bytes.Equal(world(t, c), referenceWorld(t, tab, tick, perTick)) {
			t.Fatalf("recovery %d: world diverges from the single-node reference", round)
		}
		if round == 1 {
			if _, err := c.CheckpointWorld(); err != nil {
				t.Fatal(err)
			}
			run(c, 20)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
