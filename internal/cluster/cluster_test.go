package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/peerram"
	"repro/internal/replication"
	"repro/internal/wal"
)

// testTable is 512 objects (256 KB): enough for 4 nodes × 2 slots.
func testTable() gamestate.Table {
	return gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
}

// testBatch builds tick t's update batch: deterministic pseudo-random
// cells, values encoding (tick, position) so in-tick ordering is observable.
func testBatch(tab gamestate.Table, t, n int) []wal.Update {
	rng := rand.New(rand.NewSource(int64(t)*1_000_003 + 17))
	batch := make([]wal.Update, n)
	for i := range batch {
		batch[i] = wal.Update{
			Cell:  uint32(rng.Intn(tab.NumCells())),
			Value: uint32(t)*1_000_003 + uint32(i),
		}
	}
	return batch
}

// referenceWorld applies ticks [0, ticks) serially on one in-memory engine:
// the single-node ground truth every cluster configuration must match.
func referenceWorld(t *testing.T, tab gamestate.Table, ticks, perTick int) []byte {
	t.Helper()
	e, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < ticks; i++ {
		if err := e.ApplyTick(testBatch(tab, i, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), e.Store().Slab()...)
}

// world reads the cluster's merged state.
func world(t *testing.T, c *Cluster) []byte {
	t.Helper()
	buf := make([]byte, c.Table().StateBytes())
	if err := c.ReadWorld(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestClusterTickBarrier drives a 4-node cluster with an apply hook and
// verifies the barrier ordering: no node starts tick T+1 before every node
// has applied tick T, and all engines agree on the world tick at every
// boundary.
func TestClusterTickBarrier(t *testing.T) {
	tab := testTable()
	var mu sync.Mutex
	type ev struct {
		tick uint64
		node int
	}
	var log []ev
	c, err := New(Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 4,
		BeforeApply: func(node int, tick uint64) {
			mu.Lock()
			log = append(log, ev{tick, node})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.Nodes()); got != 4 {
		t.Fatalf("effective nodes %d, want 4", got)
	}
	const ticks = 16
	for i := 0; i < ticks; i++ {
		if err := c.Tick(testBatch(tab, i, 200)); err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes() {
			if n.E.NextTick() != uint64(i+1) {
				t.Fatalf("after tick %d, node %d at tick %d", i, n.Index, n.E.NextTick())
			}
		}
	}
	// Barrier ordering: by the time any node starts tick T, all len(nodes)
	// starts of every tick below T are already in the log — and each of
	// those ticks was applied everywhere before its Tick returned (the
	// NextTick check above), which is before T was dispatched.
	seen := make(map[uint64]int)
	for _, e := range log {
		for tk, cnt := range seen {
			if tk < e.tick && cnt != len(c.Nodes()) {
				t.Fatalf("node %d started tick %d while tick %d had %d/%d applies",
					e.node, e.tick, tk, cnt, len(c.Nodes()))
			}
		}
		seen[e.tick]++
	}
	if len(log) != ticks*len(c.Nodes()) {
		t.Fatalf("barrier log has %d entries, want %d", len(log), ticks*len(c.Nodes()))
	}
	if !bytes.Equal(world(t, c), referenceWorld(t, tab, ticks, 200)) {
		t.Fatal("4-node world diverges from the single-node reference")
	}
}

// TestClusterMigrationZeroBlackout runs a live migration window mid-stream:
// the report must show zero blackout ticks, a cutover at a tick boundary,
// and the final world must match the single-node reference byte for byte.
func TestClusterMigrationZeroBlackout(t *testing.T) {
	tab := testTable()
	c, err := New(Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perTick, pre, live, post = 300, 6, 8, 6
	tick := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Tick(testBatch(tab, tick, perTick)); err != nil {
				t.Fatal(err)
			}
			tick++
		}
	}
	run(pre)
	// Move the first half of node 0's range to node 1.
	m, err := c.StartMigration(0, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.StartTick != uint64(pre) {
		t.Fatalf("migration started at tick %d, want %d", m.StartTick, pre)
	}
	run(live)
	rep, err := c.FinishMigration()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlackoutTicks != 0 {
		t.Fatalf("migration blacked out %d ticks", rep.BlackoutTicks)
	}
	if rep.TicksLive != live {
		t.Fatalf("migration spanned %d ticks, want %d", rep.TicksLive, live)
	}
	if rep.CutTick != uint64(pre+live) {
		t.Fatalf("cutover at tick %d, want the boundary %d", rep.CutTick, pre+live)
	}
	// Ownership flipped exactly at the cut.
	if got := c.Routing().OwnerAt(0, rep.CutTick-1); got != 0 {
		t.Fatalf("object 0 owned by %d just before the cut", got)
	}
	if got := c.Routing().OwnerAt(0, rep.CutTick); got != 1 {
		t.Fatalf("object 0 owned by %d at the cut", got)
	}
	run(post)
	if !bytes.Equal(world(t, c), referenceWorld(t, tab, tick, perTick)) {
		t.Fatal("post-migration world diverges from the single-node reference")
	}
}

// TestClusterPostMigrationRecovery crashes the cluster after a migration
// and recovers the whole world: the install record in the acquiring node's
// WAL must reproduce the moved range without any history from the old
// owner, and the recovered world must match the reference.
func TestClusterPostMigrationRecovery(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	const perTick = 250
	tick := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Tick(testBatch(tab, tick, perTick)); err != nil {
				t.Fatal(err)
			}
			tick++
		}
	}
	run(5)
	if _, err := c.CheckpointWorld(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartMigration(64, 256, 1); err != nil {
		t.Fatal(err)
	}
	run(4)
	if _, err := c.FinishMigration(); err != nil {
		t.Fatal(err)
	}
	run(3)
	if err := c.Close(); err != nil { // crash at a tick barrier
		t.Fatal(err)
	}

	rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if wr.WorldTick != uint64(tick) {
		t.Fatalf("recovered to world tick %d, want %d", wr.WorldTick, tick)
	}
	if got := rc.Routing().Current().Owner(100); got != 1 {
		t.Fatalf("recovered map lost the migration: object 100 owned by %d", got)
	}
	if !bytes.Equal(world(t, rc), referenceWorld(t, tab, tick, perTick)) {
		t.Fatal("recovered world diverges from the single-node reference")
	}
	// The recovered cluster keeps ticking.
	if err := rc.Tick(testBatch(tab, tick, perTick)); err != nil {
		t.Fatal(err)
	}
	tick++
	if !bytes.Equal(world(t, rc), referenceWorld(t, tab, tick, perTick)) {
		t.Fatal("world diverges after resuming from recovery")
	}
}

// TestClusterTickActions covers the action fan-out: per-node payloads apply
// and replay through each node's own action log.
func TestClusterTickActions(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	// The action payload is "add v to the first cell of every object in
	// [lo,hi)", a read-modify-write the replay can reproduce from the
	// payload alone.
	replay := func(tick uint64, payload []byte, w *engine.TickWriter) error {
		lo := binary.LittleEndian.Uint32(payload[0:])
		hi := binary.LittleEndian.Uint32(payload[4:])
		v := binary.LittleEndian.Uint32(payload[8:])
		cpo := uint32(tab.CellsPerObject())
		for obj := lo; obj < hi; obj++ {
			cell := obj * cpo
			if !w.Owns(cell) {
				continue
			}
			w.Set(cell, w.Cell(cell)+v)
		}
		return nil
	}
	action := func(lo, hi, v uint32) []byte {
		b := make([]byte, 12)
		binary.LittleEndian.PutUint32(b[0:], lo)
		binary.LittleEndian.PutUint32(b[4:], hi)
		binary.LittleEndian.PutUint32(b[8:], v)
		return b
	}
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2, ReplayAction: replay})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(testBatch(tab, 0, 100)); err != nil {
		t.Fatal(err)
	}
	// World action "add 7 to every object's first cell", decomposed by the
	// caller into each node's owned range; node 1 idles on the second tick.
	if err := c.TickActions([][]byte{action(0, 256, 7), action(256, 512, 7)}); err != nil {
		t.Fatal(err)
	}
	if err := c.TickActions([][]byte{action(0, 256, 3), nil}); err != nil {
		t.Fatal(err)
	}
	if c.NextTick() != 3 {
		t.Fatalf("world at tick %d, want 3", c.NextTick())
	}
	want := world(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rc, _, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, ReplayAction: replay})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if !bytes.Equal(world(t, rc), want) {
		t.Fatal("recovered world diverges after action ticks")
	}
	// Actions are refused while a migration is in flight: an opaque
	// payload's writes to the moving range cannot be streamed, so the
	// cutover install would silently lose them.
	if _, err := rc.StartMigration(0, 128, 1); err != nil {
		t.Fatal(err)
	}
	if err := rc.TickActions([][]byte{action(0, 256, 1), nil}); err == nil {
		t.Fatal("action tick accepted during a live migration")
	}
	if _, err := rc.FinishMigration(); err != nil {
		t.Fatal(err)
	}
	if err := rc.TickActions([][]byte{nil, action(0, 128, 1)}); err != nil {
		t.Fatalf("action tick after cutover: %v", err)
	}
}

// TestCheckpointWorldNamesSegmentsByFirstRecord: after a coordinated cut
// taken between ticks, every node's newest log segment is named for the tick
// of the first record later appended to it — the invariant that lets each
// node's recovery skip the sealed segments the cut made stale.
func TestCheckpointWorldNamesSegmentsByFirstRecord(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 12
	for i := 0; i < ticks; i++ {
		if err := c.Tick(testBatch(tab, i, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointWorld(); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(testBatch(tab, ticks, 200)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // flushes every node's log
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		names, err := filepath.Glob(filepath.Join(n.E.WALDir(), "wal-*.seg"))
		if err != nil || len(names) == 0 {
			t.Fatalf("node %d: segments %v, err %v", n.Index, names, err)
		}
		sort.Strings(names) // zero-padded: name order is tick order
		var newest uint64
		if _, err := fmt.Sscanf(filepath.Base(names[len(names)-1]), "wal-%d.seg", &newest); err != nil {
			t.Fatal(err)
		}
		if newest != ticks {
			t.Errorf("node %d: newest segment named %d after a cut as of tick %d, want %d", n.Index, newest, ticks-1, ticks)
		}
		r, err := wal.NewReader(n.E.WALDir(), newest)
		if err != nil {
			t.Fatal(err)
		}
		first, _, err := r.Next()
		r.Close()
		if err != nil || first != newest {
			t.Errorf("node %d: segment %d starts with tick %d (err %v)", n.Index, newest, first, err)
		}
	}
}

// TestRecoverFoldsNodeRequest: New folds a 3-node request to 2 (Uniform
// rounds down to a power of two), so Recover must fold the same request the
// same way before comparing it with the manifest — and still refuse a
// request that folds to a different count.
func TestRecoverFoldsNodeRequest(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes()); got != 2 {
		t.Fatalf("3-node request built %d nodes, want 2", got)
	}
	const ticks = 4
	for i := 0; i < ticks; i++ {
		if err := c.Tick(testBatch(tab, i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, Nodes: 4}); err == nil {
		t.Fatal("a 4-node request recovered a 2-node world")
	}
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, Nodes: 3})
	if err != nil {
		t.Fatalf("the request that built the world cannot recover it: %v", err)
	}
	defer rc.Close()
	if wr.WorldTick != ticks || !bytes.Equal(world(t, rc), referenceWorld(t, tab, ticks, 100)) {
		t.Fatalf("recovered world at tick %d diverges from the reference", wr.WorldTick)
	}
}

// TestNeedsBarrier: every feature not proven with logged messages or a
// non-zero window is refused with the one typed error at MaxSkew = 2 and
// works at 0.
func TestNeedsBarrier(t *testing.T) {
	tab := testTable()
	noop := func(uint64, []byte, *engine.TickWriter) error { return nil }
	for _, window := range []int{0, 2} {
		world := func(t *testing.T, opts Options) (*Cluster, error) {
			opts.Table, opts.Dir, opts.Mode, opts.Nodes, opts.MaxSkew = tab, t.TempDir(), engine.ModeCopyOnUpdate, 2, window
			c, err := New(opts)
			if err == nil {
				t.Cleanup(func() { c.Close() })
				err = c.Tick(testBatch(tab, 0, 50))
			}
			return c, err
		}
		features := map[string]func(t *testing.T) error{
			"migration": func(t *testing.T) error {
				c, err := world(t, Options{})
				if err != nil {
					return err
				}
				_, err = c.StartMigration(0, 128, 1)
				return err
			},
			"actions": func(t *testing.T) error {
				c, err := world(t, Options{ReplayAction: noop})
				if err != nil {
					return err
				}
				return c.TickActions([][]byte{[]byte("a"), nil})
			},
			"peerram": func(t *testing.T) error {
				_, err := world(t, Options{PeerRAM: peerram.NewMesh(2, peerram.Options{})})
				return err
			},
			"standbys": func(t *testing.T) error {
				c, err := world(t, Options{})
				if err != nil {
					return err
				}
				if err := c.Close(); err != nil {
					return err
				}
				rc, _, err := Recover(c.opts.Dir, Options{Mode: engine.ModeCopyOnUpdate, Standbys: []*replication.Standby{nil, nil}})
				if err == nil {
					rc.Close()
				}
				return err
			},
			"recovery-mode": func(t *testing.T) error {
				c, err := world(t, Options{})
				if err != nil {
					return err
				}
				if err := c.Close(); err != nil {
					return err
				}
				rc, _, err := Recover(c.opts.Dir, Options{Mode: engine.ModeCopyOnUpdate, RecoveryMode: RecoveryStandby})
				if err == nil {
					rc.Close()
				}
				return err
			},
		}
		for name, run := range features {
			t.Run(fmt.Sprintf("maxskew=%d/%s", window, name), func(t *testing.T) {
				err := run(t)
				if window == 0 && err != nil {
					t.Fatalf("refused at the barrier: %v", err)
				}
				if window > 0 && !errors.Is(err, ErrNeedsBarrier) {
					t.Fatalf("at MaxSkew %d returned %v, want ErrNeedsBarrier", window, err)
				}
			})
		}
	}
}
