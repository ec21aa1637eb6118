package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/wal"
	"repro/internal/workload"
)

// refApply is the apply path as it was before applyBatch bucketed the tick:
// the per-update onUpdate → SetCell loop, over its own copy of everything the
// apply path reads and writes. It is the oracle the bucketed apply is held
// to — slab, dirty maps, pre-image state and copy count — and it counts the
// stripe locks the per-update loop took, which the bucketed apply must not.
type refApply struct {
	plan        shardPlan
	cellsPerObj uint32
	objSize     int

	slab     []byte
	dirty    [2][]uint64
	inFlight bool
	writeSet []uint64
	handled  []uint64
	side     []byte
	cursor   []int64 // per shard
	copies   int64
	locks    int64
}

// newRefApply copies the engine's apply-side state. The engine must be
// quiescent: no tick running, and any flush in flight parked (holdDevs).
func newRefApply(e *Engine) *refApply {
	r := &refApply{
		plan:        e.plan,
		cellsPerObj: e.store.cellsPerObj, objSize: e.store.ObjSize(),
		slab: bytes.Clone(e.store.Slab()),
	}
	switch c := e.cp.(type) {
	case *couCP:
		r.dirty = [2][]uint64{append([]uint64(nil), c.dirty[0]...), append([]uint64(nil), c.dirty[1]...)}
		r.inFlight = c.inFlight.Load()
		r.writeSet = append([]uint64(nil), c.writeSet...)
		r.handled = append([]uint64(nil), c.handled...)
		r.side = bytes.Clone(c.side)
		for s := range c.shards {
			r.cursor = append(r.cursor, c.shards[s].cursor.Load())
		}
		r.copies = c.st.Copies.Load()
	case *atomicCP:
		r.dirty = [2][]uint64{append([]uint64(nil), c.dirty[0]...), append([]uint64(nil), c.dirty[1]...)}
	}
	return r
}

// onUpdate is the parent commit's update hook, per mode: nothing (none,
// naive), mark (atomic-copy), or mark and the copy-on-update pre-image
// sequence — with the mutex replaced by a count of its acquisitions.
func (r *refApply) onUpdate(obj int32) {
	if r.dirty[0] == nil {
		return
	}
	w, m := obj>>6, uint64(1)<<(uint(obj)&63)
	r.dirty[0][w] |= m
	r.dirty[1][w] |= m
	if r.writeSet == nil || !r.inFlight {
		return
	}
	if r.writeSet[w]&m == 0 {
		return // not part of the in-flight image
	}
	s := r.plan.shardOf(obj)
	if r.cursor[s] > int64(obj) {
		return // shard flusher already staged this object
	}
	r.locks++ // mu.Lock()
	if r.handled[w]&m == 0 && r.cursor[s] <= int64(obj) {
		copy(r.side[int(obj)*r.objSize:(int(obj)+1)*r.objSize], r.slab[int(obj)*r.objSize:(int(obj)+1)*r.objSize])
		r.handled[w] |= m
		r.copies++
	}
}

// referenceApply is the parent commit's applyBatch loop, verbatim.
func (r *refApply) referenceApply(updates []wal.Update) {
	for _, u := range updates {
		r.onUpdate(int32(u.Cell / r.cellsPerObj))
		binary.LittleEndian.PutUint32(r.slab[u.Cell*4:], u.Value)
	}
}

// diff returns how the engine's apply-side state differs from the
// reference's, or "" when it does not.
func (r *refApply) diff(e *Engine) string {
	if !bytes.Equal(e.store.Slab(), r.slab) {
		return "slab bytes differ"
	}
	var dirty [2][]uint64
	switch c := e.cp.(type) {
	case *couCP:
		dirty = c.dirty
		for w := range r.handled {
			if c.handled[w] != r.handled[w] {
				return fmt.Sprintf("handled[%d] = %#x, reference %#x", w, c.handled[w], r.handled[w])
			}
			for word := r.handled[w]; word != 0; word &= word - 1 {
				obj := w<<6 + bits.TrailingZeros64(word)
				if !bytes.Equal(c.side[obj*r.objSize:(obj+1)*r.objSize], r.side[obj*r.objSize:(obj+1)*r.objSize]) {
					return fmt.Sprintf("pre-image of object %d differs", obj)
				}
			}
		}
		if got := c.st.Copies.Load(); got != r.copies {
			return fmt.Sprintf("Copies = %d, reference %d", got, r.copies)
		}
	case *atomicCP:
		dirty = c.dirty
	}
	for i := range r.dirty {
		for w := range r.dirty[i] {
			if dirty[i][w] != r.dirty[i][w] {
				return fmt.Sprintf("dirty[%d][%d] = %#x, reference %#x", i, w, dirty[i][w], r.dirty[i][w])
			}
		}
	}
	return ""
}

// holdDevs parks a checkpoint flush mid-image. A shard flusher parks on its
// first data write that starts in the upper half of its shard's region — so
// its cursor stands in the middle of the shard — and the writer parks on the
// data Sync when no flusher did (naive and atomic-copy write a shard's region
// in one piece). Parked, the image stays in flight and nothing but the apply
// path touches the checkpointer, so a tick's effect on it is deterministic.
type holdDevs struct {
	plan    shardPlan
	objSize int64

	mu       sync.Mutex
	cond     *sync.Cond
	released bool
	data     bool // a data write has been seen
	parked   int
}

func newHoldDevs(plan shardPlan, objSize int) *holdDevs {
	h := &holdDevs{plan: plan, objSize: int64(objSize)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *holdDevs) open(path string) (disk.Device, error) {
	dev, err := disk.OpenFile(path)
	if err != nil {
		return nil, err
	}
	// Embedding the interface hides the vectored fast path, so a vectored
	// run arrives as WriteAt calls.
	return &holdDev{Device: dev, h: h}, nil
}

// park blocks the calling device operation until release.
func (h *holdDevs) park() {
	h.parked++
	h.cond.Broadcast()
	for !h.released {
		h.cond.Wait()
	}
}

// awaitParked returns once n device operations are parked.
func (h *holdDevs) awaitParked(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.parked < n {
		h.cond.Wait()
	}
}

// release lets every parked operation, and every later one, through.
func (h *holdDevs) release() {
	h.mu.Lock()
	h.released = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

type holdDev struct {
	disk.Device
	h *holdDevs
}

func (d *holdDev) WriteAt(p []byte, off int64) (int, error) {
	if h := d.h; off != 0 {
		h.mu.Lock()
		h.data = true
		obj := int((off - disk.HeaderSize) / h.objSize)
		lo, hi := h.plan.objRange(h.plan.shardOf(int32(obj)))
		if !h.released && obj >= (lo+hi)/2 {
			h.park()
		}
		h.mu.Unlock()
	}
	return d.Device.WriteAt(p, off)
}

func (d *holdDev) Sync() error {
	h := d.h
	h.mu.Lock()
	if !h.released && h.data {
		h.park()
	}
	h.mu.Unlock()
	return d.Device.Sync()
}

// openHoldable opens a durable engine over shardTable whose checkpoint
// flushes park mid-image until the test ends (or h.release).
func openHoldable(t testing.TB, mode Mode, shards int) (*Engine, *holdDevs) {
	t.Helper()
	tab := shardTable()
	h := newHoldDevs(makeShardPlan(tab.NumObjects(), shards), tab.ObjSize)
	e, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: mode, Shards: shards, DeviceFactory: h.open})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.release()
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	})
	return e, h
}

// tickAndHold applies the engine's first tick, whose end cuts an image, and
// returns once that image's flush is parked: every shard flusher under the
// copy-on-update methods, the writer's Sync under naive and atomic-copy,
// nothing under ModeNone.
func (h *holdDevs) tickAndHold(t testing.TB, e *Engine, first []wal.Update) {
	t.Helper()
	if err := e.ApplyTick(first); err != nil {
		t.Fatal(err)
	}
	switch e.opts.Mode {
	case ModeNone:
	case ModeCopyOnUpdate, ModeDribble:
		h.awaitParked(e.Shards())
	default:
		h.awaitParked(1)
	}
}

// diffBatches is the differential's tick sequence over shardTable: hotspot
// ticks (repeated cells, batch order observable through TickUpdates' value
// encoding), uniform ticks with the head of the batch rewritten at its tail,
// an empty tick, and a tick confined to one bitmap word.
func diffBatches(t testing.TB, seed int64) [][]wal.Update {
	t.Helper()
	tab := shardTable()
	src, err := workload.New("hotspot", workload.Config{Table: tab, UpdatesPerTick: 400, Ticks: 8, Skew: 0.8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var out [][]wal.Update
	for i := 0; i < 8; i++ {
		_, hot := workload.TickUpdates(src, i, nil, nil)
		out = append(out, hot)
		batch := randomBatch(rng, tab.NumCells(), 300)
		batch = append(batch, batch[:40]...)
		for j := len(batch) - 40; j < len(batch); j++ {
			batch[j].Value = rng.Uint32()
		}
		out = append(out, batch)
	}
	out = append(out, nil)
	cpw := 64 * tab.CellsPerObject()
	oneWord := randomBatch(rng, cpw, 200)
	for i := range oneWord {
		oneWord[i].Cell += uint32(5 * cpw)
	}
	return append(out, oneWord, randomBatch(rng, tab.NumCells(), 300))
}

// TestApplyMatchesPerUpdateReference is the bucketed apply's differential:
// after every batch — applied with no flush in flight, and then tick by tick
// while a flush is parked with its cursors mid-shard, so that "already
// staged", "pre-image already saved" and "first touch" all occur — the slab,
// both dirty maps, the handled map, every saved pre-image and the copy count
// equal the per-update loop's. Shard counts must not matter: the final slab
// is the same bytes at 1, 2 and 8.
func TestApplyMatchesPerUpdateReference(t *testing.T) {
	for _, mode := range append([]Mode{ModeNone}, checkpointingModes...) {
		var slabs [][]byte
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				batches := diffBatches(t, 41)
				e, h := openHoldable(t, mode, shards)
				// No flush in flight yet: the mark-only half of the hook.
				ref := newRefApply(e)
				for i, b := range batches[:4] {
					ref.referenceApply(b)
					e.applyBatch(b)
					if d := ref.diff(e); d != "" {
						t.Fatalf("idle batch %d: %s", i, d)
					}
				}
				h.tickAndHold(t, e, batches[4])
				ref = newRefApply(e)
				if cou := mode == ModeCopyOnUpdate || mode == ModeDribble; cou {
					for s, cur := range ref.cursor {
						if lo, hi := e.plan.objRange(s); cur <= int64(lo) || cur >= int64(hi) {
							t.Fatalf("shard %d parked with cursor %d, want inside (%d, %d)", s, cur, lo, hi)
						}
					}
				}
				for i, b := range batches[5:] {
					ref.referenceApply(b)
					if err := e.ApplyTick(b); err != nil {
						t.Fatal(err)
					}
					if d := ref.diff(e); d != "" {
						t.Fatalf("held tick %d: %s", i, d)
					}
				}
				if ref.writeSet != nil && (ref.copies == 0 || ref.locks == ref.copies) {
					t.Fatalf("reference took %d locks for %d copies: the held ticks never revisited a saved object", ref.locks, ref.copies)
				}
				slabs = append(slabs, bytes.Clone(e.store.Slab()))
			})
		}
		for i := 1; i < len(slabs); i++ {
			if !bytes.Equal(slabs[0], slabs[i]) {
				t.Errorf("%v: slab differs between shard counts", mode)
			}
		}
	}
}

// TestApplyAgainstLiveFlusher runs the differential's slab half with nothing
// parked: throttled flushers stage objects and read pre-images while the
// ticks apply (the -race half of the differential), and the image each
// completed checkpoint left on disk is the slab as of its tick.
func TestApplyAgainstLiveFlusher(t *testing.T) {
	for _, mode := range []Mode{ModeCopyOnUpdate, ModeDribble} {
		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				tab := shardTable()
				dir := t.TempDir()
				e, err := Open(Options{Table: tab, Dir: dir, Mode: mode, Shards: shards, DiskBytesPerSec: 16e6})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefApply(e)
				history := map[uint64][]byte{}
				for round := 0; round < 6; round++ {
					for _, b := range diffBatches(t, int64(50+round)) {
						ref.referenceApply(b)
						tick := e.NextTick()
						if err := e.ApplyTick(b); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(e.store.Slab(), ref.slab) {
							t.Fatalf("tick %d: slab differs from the per-update reference", tick)
						}
						history[tick] = bytes.Clone(ref.slab)
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e.CheckpointStats().Copies.Load() == 0 {
					t.Error("no pre-image was ever saved: the flush never raced the ticks")
				}
				checkImagesAgainstHistory(t, dir, history)
			})
		}
	}
}

// checkImagesAgainstHistory requires every complete backup image in dir to
// be byte-exact as of its header's tick.
func checkImagesAgainstHistory(t *testing.T, dir string, history map[uint64][]byte) {
	t.Helper()
	tab := shardTable()
	for _, name := range []string{"backup-a.img", "backup-b.img"} {
		dev, err := disk.OpenFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		b, err := disk.NewBackup(dev, tab.NumObjects(), tab.ObjSize)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := b.ReadHeader()
		if err != nil || !hdr.Complete {
			continue
		}
		got := make([]byte, tab.StateBytes())
		if err := b.ReadRun(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, history[hdr.AsOfTick]) {
			t.Errorf("image %s is not the slab as of its tick %d", name, hdr.AsOfTick)
		}
	}
}

// TestCOULocksOncePerObjectPerCheckpoint pins the paper's cost model
// (costmodel.UpdateOverhead charges Olock on first touch only): over one
// held flush, N ticks rewriting the same K write-set objects past the cursor
// take K stripe locks, where the per-update loop took one per update.
func TestCOULocksOncePerObjectPerCheckpoint(t *testing.T) {
	const k, n, perObj = 24, 10, 3
	e, h := openHoldable(t, ModeCopyOnUpdate, 1)
	// The first tick dirties every object: a fresh engine's first image
	// writes only what it dirtied, and the held flush must be the whole
	// state for k write-set objects to sit past the parked cursor.
	var first []wal.Update
	for obj := 0; obj < e.store.NumObjects(); obj++ {
		first = append(first, wal.Update{Cell: uint32(obj) * e.store.cellsPerObj, Value: 1})
	}
	h.tickAndHold(t, e, first)
	cp := e.cp.(*couCP)
	cursor := int(cp.shards[0].cursor.Load())
	if cursor+k > e.store.NumObjects() {
		t.Fatalf("cursor parked at %d: fewer than %d objects past it", cursor, k)
	}
	var batch []wal.Update
	for i := 0; i < perObj; i++ {
		for obj := cursor; obj < cursor+k; obj++ {
			batch = append(batch, wal.Update{Cell: uint32(obj)*e.store.cellsPerObj + uint32(i), Value: uint32(obj + i)})
		}
	}
	ref := newRefApply(e)
	locks0, copies0 := cp.st.Locks.Load(), cp.st.Copies.Load()
	for i := 0; i < n; i++ {
		ref.referenceApply(batch)
		if err := e.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := cp.st.Locks.Load() - locks0; got != k {
		t.Errorf("apply path took %d stripe locks over %d ticks on %d objects, want %d", got, n, k, k)
	}
	if got := cp.st.Copies.Load() - copies0; got != k {
		t.Errorf("%d pre-image copies, want %d", got, k)
	}
	if ref.locks != n*k*perObj {
		t.Errorf("per-update reference counted %d locks, want %d (one per update)", ref.locks, n*k*perObj)
	}
}

// TestApplyAllocations: once its buffers have grown, a durable tick — encode,
// append, bucket, onWord, stores — allocates nothing. The flush is parked so
// no checkpoint completes (booking one appends to Stats) inside the window.
func TestApplyAllocations(t *testing.T) {
	batches := diffBatches(t, 43)
	e, h := openHoldable(t, ModeCopyOnUpdate, 2)
	h.tickAndHold(t, e, batches[0])
	for _, b := range batches { // grow encBuf, bucket and the log's buffer
		if err := e.ApplyTick(b); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.ApplyTick(batches[i%len(batches)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("ApplyTick allocates %.1f times per tick in steady state, want 0", allocs)
	}
}

// TestApplyDropsCellsPastTheTable: an update whose cell lies past the table
// is logged as submitted, written nowhere and not counted — the same at
// every shard count, live and on replay (it used to panic a one-shard engine
// after its record was logged, and to vanish silently at two).
func TestApplyDropsCellsPastTheTable(t *testing.T) {
	tab := shardTable()
	const ticks = 5
	var slabs [][]byte
	for _, shards := range []int{1, 2, 8} {
		dir := t.TempDir()
		opts := Options{Table: tab, Dir: dir, Mode: ModeNone, SyncEveryTick: true, Shards: shards}
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < ticks; i++ {
			batch := []wal.Update{
				{Cell: 1000 + i, Value: 7 + i},
				{Cell: uint32(tab.NumCells()) + 500, Value: 8},
				{Cell: 1 << 30, Value: 9},
			}
			if err := e.ApplyTick(batch); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		}
		if got := e.Stats().UpdatesApplied; got != ticks {
			t.Errorf("shards=%d: UpdatesApplied = %d, want %d (cells actually written)", shards, got, ticks)
		}
		live := bytes.Clone(e.store.Slab())
		slabs = append(slabs, live)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for _, reopen := range []struct {
			name string
			open func() (*Engine, error)
		}{
			{"Open", func() (*Engine, error) { return Open(opts) }},
			{"RecoverFrom", func() (*Engine, error) { e, _, err := RecoverFrom(opts); return e, err }},
		} {
			r, err := reopen.open()
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, reopen.name, err)
			}
			if !bytes.Equal(r.store.Slab(), live) {
				t.Errorf("shards=%d %s: recovered slab differs from the live one", shards, reopen.name)
			}
			if got := r.Recovery().ReplayedUpdates; got != ticks {
				t.Errorf("shards=%d %s: replayed %d updates, want %d", shards, reopen.name, got, ticks)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i < len(slabs); i++ {
		if !bytes.Equal(slabs[0], slabs[i]) {
			t.Error("slab differs between shard counts")
		}
	}
}
