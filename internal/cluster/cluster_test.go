package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
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

// TestClusterMigrationZeroBlackout migrates a range between two ticks: the
// cut lands at the tick boundary, ownership flips exactly there, no tick is
// dropped, and the final world matches the single-node reference byte for
// byte.
func TestClusterMigrationZeroBlackout(t *testing.T) {
	tab := testTable()
	c, err := New(Options{Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perTick, pre, post = 300, 14, 6
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
	if got := c.Routing().Current().Owner(0); got != 0 {
		t.Fatalf("object 0 owned by %d before the cut", got)
	}
	// Move the first half of node 0's range to node 1.
	rep, err := c.Migrate(0, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CutTick != pre || rep.From != 0 || rep.To != 1 || rep.Pause <= 0 {
		t.Fatalf("migration report %+v, want node 0 → 1 cut at the boundary %d", rep, pre)
	}
	if got := c.Routing().Current().Owner(0); got != 1 {
		t.Fatalf("object 0 owned by %d after the cut", got)
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
	run(4)
	if _, err := c.Migrate(64, 256, 1); err != nil {
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

// TestMigrationLostManifest crashes in the window between the target's
// fsynced install record and the cluster.json rename: the old manifest is
// put back after Migrate, as if the rename never happened. Recovery must
// resume with the source still owning the range, byte-identical to the
// reference, and keep ticking; a retried migration of the same range must
// then succeed.
func TestMigrationLostManifest(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
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
		if !bytes.Equal(world(t, c), referenceWorld(t, tab, tick, perTick)) {
			t.Fatalf("world at tick %d diverges from the single-node reference", tick)
		}
	}
	run(c, 6)
	man := filepath.Join(dir, manifestName)
	saved, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate(0, 128, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(); err != nil {
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
	if got := rc.Routing().Current().Owner(0); got != 0 {
		t.Fatalf("object 0 owned by node %d after losing the manifest, want the source 0", got)
	}
	// The install record was durable and replayed: the target holds the
	// range's bytes, which it does not own.
	moved := 128 * tab.ObjSize
	if !bytes.Equal(rc.Nodes()[1].E.Store().Slab()[:moved], world(t, rc)[:moved]) {
		t.Fatal("target's recovered slab lacks the installed range")
	}
	run(rc, 3)
	rep, err := rc.Migrate(0, 128, 1)
	if err != nil {
		t.Fatalf("retried migration: %v", err)
	}
	if rep.CutTick != uint64(tick) || rc.Routing().Current().Owner(0) != 1 {
		t.Fatalf("retried migration %+v did not cut over at tick %d", rep, tick)
	}
	run(rc, 3)
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
// request that folds to a different count, a different geometry or a
// different MaxSkew. A second New on the closed world's root is refused
// from the backups' image headers and the log's sizes, reading no image
// byte, before it touches the manifest, and Recover still opens the world.
func TestRecoverFoldsNodeRequest(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	opts := Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 3}
	c, err := New(opts)
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
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	// The refusal reads the backups' image headers and nothing past them.
	reads := &imageReads{n: map[string]int64{}}
	refused := opts
	refused.DeviceFactory = reads.factory
	if c, err := New(refused); err == nil {
		c.Close()
		t.Fatal("New took over the world it found")
	} else if !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("New's refusal does not name Recover: %v", err)
	}
	for i := range 2 {
		if n := reads.take(NodeDir(dir, i)); n != 0 {
			t.Errorf("New's refusal read %d image bytes of node %d", n, i)
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(got, manifest) {
		t.Fatalf("the refused New changed %s (err %v)", manifestName, err)
	}
	wider := tab
	wider.Rows *= 2
	for _, req := range []struct {
		opts Options
		want string // in the refusal
	}{
		{Options{Mode: engine.ModeCopyOnUpdate, Nodes: 4}, "4 nodes"},
		{Options{Mode: engine.ModeCopyOnUpdate, Table: wider}, "geometry"},
		{Options{Mode: engine.ModeCopyOnUpdate, MaxSkew: 2}, "MaxSkew 2"},
	} {
		if _, _, err := Recover(dir, req.opts); err == nil || !strings.Contains(err.Error(), req.want) {
			t.Fatalf("a request differing in %q from the manifest: err %v", req.want, err)
		}
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

// TestRecoverRefusesAnotherLogFormat: a one-node world whose node log is
// engine/testdata/parent-wal — written before the segment header, in the
// varint record kinds — is refused by Recover, barrier and logged alike,
// with the log's own *wal.FormatError (no header, this build's version 1)
// before any node resumes.
func TestRecoverRefusesAnotherLogFormat(t *testing.T) {
	parent, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "parent-wal", "wal-00000000000000000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, skew := range []int{0, 2} {
		dir := t.TempDir()
		c, err := New(Options{Table: testTable(), Dir: dir, Mode: engine.ModeNone, Nodes: 1, MaxSkew: skew})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(NodeDir(dir, 0), "wal", "wal-00000000000000000000.seg")
		if err := os.WriteFile(seg, parent, 0o644); err != nil {
			t.Fatal(err)
		}
		rc, _, err := Recover(dir, Options{Mode: engine.ModeNone})
		if err == nil {
			rc.Close()
		}
		var fe *wal.FormatError
		if !errors.As(err, &fe) || fe.Found != 0 || fe.Want != 1 || fe.Segment != seg {
			t.Errorf("MaxSkew %d: Recover: %v, want a *wal.FormatError naming %s, version 0 and 1", skew, err, seg)
		}
	}
}

// TestNeedsBarrier: every feature not proven with logged messages or a
// non-zero window is refused with the one typed error at MaxSkew = 2 and
// works at 0.
func TestNeedsBarrier(t *testing.T) {
	tab := testTable()
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
				_, err = c.Migrate(0, 128, 1)
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

// TestBarrierTimeout stalls one node's apply behind a gate past the
// configured deadline and checks the coordinator gets a typed timeout naming
// the straggler instead of hanging, and that the cluster wedges afterwards —
// for the barrier wait at MaxSkew = 0 and for the window wait at MaxSkew = 2.
// The gate is released only after the assertions, so nothing depends on how
// long a stall lasts and Close has no sleep to wait out.
func TestBarrierTimeout(t *testing.T) {
	tab := testTable()
	for _, window := range []int{0, 2} {
		t.Run(fmt.Sprintf("maxskew=%d", window), func(t *testing.T) {
			gate := make(chan struct{})
			c, err := New(Options{
				Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2,
				MaxSkew: window, BarrierTimeout: 50 * time.Millisecond,
				BeforeApply: func(node int, tick uint64) {
					if node == 1 && tick == 1 {
						<-gate
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Tick(testBatch(tab, 0, 100)); err != nil {
				t.Fatal(err)
			}
			// Node 1 stalls applying tick 1. At the barrier that tick's own wait
			// times out; at MaxSkew = 2 the window admits ticks 1 and 2 and the
			// wait of tick 3 — for tick 1 everywhere — is the one that does.
			for tick := 1; tick <= 1+window && err == nil; tick++ {
				err = c.Tick(testBatch(tab, tick, 100))
			}
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("stalled wait returned %v, want *TimeoutError", err)
			}
			if !te.Timeout() || te.Op != "tick" || te.Tick != uint64(1+window) {
				t.Fatalf("timeout error = %+v", te)
			}
			if len(te.Waiting) != 1 || te.Waiting[0] != 1 {
				t.Fatalf("waiting nodes = %v, want [1]", te.Waiting)
			}
			// Wedged: the straggler may still hold its engine, so tick calls fail
			// with the same typed error rather than racing it.
			if err := c.Tick(testBatch(tab, 9, 100)); !errors.As(err, &te) {
				t.Fatalf("tick after a wait timeout: %v, want the wedge error", err)
			}
			if _, err := c.CheckpointWorld(); !errors.As(err, &te) {
				t.Fatalf("checkpoint after a wait timeout: %v, want the wedge error", err)
			}
			close(gate)
		})
	}
}
