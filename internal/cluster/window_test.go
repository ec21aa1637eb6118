package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// worldBatch is the test workload: a pure function of the tick, so a resumed
// coordinator can re-dispatch rolled-back ticks identically.
func worldBatch(tab gamestate.Table, t uint64, perTick int) []wal.Update {
	cells := tab.NumObjects() * tab.CellsPerObject()
	rng := rand.New(rand.NewSource(int64(t)*7919 + 17))
	out := make([]wal.Update, perTick)
	for k := range out {
		out[k] = wal.Update{Cell: uint32(rng.Intn(cells)), Value: uint32(t)<<20 | uint32(k)}
	}
	return out
}

// testEmit is the cross-partition action source: pure in (node, tick), with
// values that encode their provenance so the exactly-once scan can key on
// them.
func testEmit(tab gamestate.Table, perEmit int) EmitFunc {
	cells := tab.NumObjects() * tab.CellsPerObject()
	return func(node int, tick uint64) []wal.Update {
		rng := rand.New(rand.NewSource(int64(node)*1_000_003 + int64(tick)*31 + 5))
		out := make([]wal.Update, perEmit)
		for k := range out {
			out[k] = wal.Update{Cell: uint32(rng.Intn(cells)), Value: uint32(tick)<<16 | uint32(node)<<8 | uint32(k)}
		}
		return out
	}
}

// serialReference runs the same workload on a single never-crashed serial
// engine: world batch first, then the emissions whose delivery lands on the
// tick, in origin order — the exact order the skew cluster's sorted delivery
// guarantees.
func serialReference(t *testing.T, tab gamestate.Table, nodes int, window uint64,
	total uint64, perTick int, emit EmitFunc) []byte {
	t.Helper()
	ref, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for tick := uint64(0); tick < total; tick++ {
		batch := worldBatch(tab, tick, perTick)
		if emit != nil && tick >= window+1 {
			origin := tick - window - 1
			for j := 0; j < nodes; j++ {
				batch = append(batch, emit(j, origin)...)
			}
		}
		if err := ref.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), ref.Store().Slab()...)
}

// TestSkewEquivalence: a bounded-skew world with live cross-partition
// messages and worker-side staggered checkpoints must end byte-identical to
// the serial reference, at 1, 2 and 4 nodes.
func TestSkewEquivalence(t *testing.T) {
	tab := testTable()
	const total, perTick, window = 30, 60, 3
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			emit := testEmit(tab, 3)
			c, err := New(Options{
				Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate,
				Nodes: nodes, MaxSkew: window, CheckpointEvery: 8, Emit: emit,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n := len(c.Nodes())
			for tick := uint64(0); tick < total; tick++ {
				if err := c.Tick(worldBatch(tab, tick, perTick)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Join(); err != nil {
				t.Fatal(err)
			}
			want := serialReference(t, tab, n, window, total, perTick, emit)
			got := make([]byte, tab.StateBytes())
			if err := c.ReadWorld(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("skew world diverges from serial reference")
			}
			// The worker-side schedule must have produced genuinely staggered
			// cuts: recorded at different ticks when there is more than one node.
			man, err := ReadManifest(c.opts.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if man.MaxSkew != window {
				t.Fatalf("manifest maxskew %d, want %d", man.MaxSkew, window)
			}
			if len(man.NodeCuts) != n {
				t.Fatalf("%d node cuts, want %d", len(man.NodeCuts), n)
			}
			if n > 1 {
				distinct := map[uint64]bool{}
				for _, cut := range man.NodeCuts {
					distinct[cut.AsOfTick] = true
				}
				if len(distinct) < 2 {
					t.Fatalf("cuts not staggered: %+v", man.NodeCuts)
				}
			}
		})
	}
}

// TestMaxSkewZeroMatchesBarrier: with MaxSkew 0 and no messages the one
// runtime is the plain barrier world — every node's WAL segment files are
// byte-identical to a lone engine fed that node's routed batches through
// ApplyTick, and no second log is opened. ModeNone keeps the full history
// deterministic (the CoU checkpointer rotates and prunes segments at
// timing-dependent ticks, which perturbs retention, not semantics; state
// identity under CoU is TestSkewEquivalence's job).
func TestMaxSkewZeroMatchesBarrier(t *testing.T) {
	tab := testTable()
	const total, perTick, nodes = 12, 50, 2
	for _, mode := range []engine.Mode{engine.ModeNone} {
		t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
			c, err := New(Options{Table: tab, Dir: t.TempDir(), Mode: mode, Nodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			m := c.Routing().Current()
			refs := make([]*engine.Engine, nodes)
			for i := range refs {
				if refs[i], err = engine.Open(engine.Options{Table: tab, Dir: t.TempDir(), Mode: mode, Shards: 1}); err != nil {
					t.Fatal(err)
				}
			}
			perNode := make([][]wal.Update, nodes)
			for tick := uint64(0); tick < total; tick++ {
				batch := worldBatch(tab, tick, perTick)
				if err := c.Tick(batch); err != nil {
					t.Fatal(err)
				}
				perNode = RouteTick(m, uint32(tab.CellsPerObject()), batch, perNode)
				for i, ref := range refs {
					if err := ref.ApplyTick(perNode[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for i, ref := range refs {
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(NodeDir(c.opts.Dir, i), "inbox")); !os.IsNotExist(err) {
					t.Fatalf("node %d: a barrier world without messages opened an inbox (stat: %v)", i, err)
				}
				got, want := c.Nodes()[i].E.WALDir(), ref.WALDir()
				gEnts, err := os.ReadDir(got)
				if err != nil {
					t.Fatal(err)
				}
				wEnts, err := os.ReadDir(want)
				if err != nil {
					t.Fatal(err)
				}
				if len(gEnts) != len(wEnts) || len(gEnts) == 0 {
					t.Fatalf("node %d: %d cluster segments vs %d reference", i, len(gEnts), len(wEnts))
				}
				for k := range gEnts {
					if gEnts[k].Name() != wEnts[k].Name() {
						t.Fatalf("node %d: segment %s vs %s", i, gEnts[k].Name(), wEnts[k].Name())
					}
					gb, err := os.ReadFile(filepath.Join(got, gEnts[k].Name()))
					if err != nil {
						t.Fatal(err)
					}
					wb, err := os.ReadFile(filepath.Join(want, wEnts[k].Name()))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gb, wb) || len(gb) == 0 {
						t.Fatalf("node %d: WAL segment %s differs from the lone-engine reference", i, gEnts[k].Name())
					}
				}
			}
		})
	}
}

// TestStragglerBlocksOnlyDependents: a node stalled at tick T must not stop
// dispatch until the window is exhausted — the other node runs ahead to the
// window edge, and only the tick at the edge blocks.
func TestStragglerBlocksOnlyDependents(t *testing.T) {
	tab := testTable()
	const window = 3
	gate := make(chan struct{})
	entered := make(chan struct{})
	c, err := New(Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2, MaxSkew: window,
		BeforeApply: func(node int, tick uint64) {
			if node == 0 && tick == 5 {
				close(entered)
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Tick(D) returns once every node has applied D-window; with node 0 stuck
	// applying tick 5, ticks through 5+window-1 return freely.
	for tick := uint64(0); tick < 5+window; tick++ {
		if err := c.Tick(worldBatch(tab, tick, 20)); err != nil {
			t.Fatal(err)
		}
	}
	<-entered

	// The tick at the window edge dispatches — the same set of ticks is in
	// flight as ever — but its call must block on the straggler.
	blocked := make(chan error, 1)
	go func() { blocked <- c.Tick(worldBatch(tab, 5+window, 20)) }()
	waitApplied(c, 1, 5+window+1)
	if got := c.AppliedTick(1); got != 5+window+1 {
		t.Fatalf("node 1 applied %d ticks, want %d (window not open)", got, 5+window+1)
	}
	if got := c.AppliedTick(0); got != 5 {
		t.Fatalf("straggler applied %d ticks, want 5", got)
	}
	select {
	case <-blocked:
		t.Fatal("tick at the window edge returned despite the straggler")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(worldBatch(tab, 5+window+1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if c.BarrierWait() == 0 {
		t.Fatal("window wait not accounted")
	}
	want := serialReference(t, tab, len(c.Nodes()), window, 5+window+2, 20, nil)
	got := make([]byte, tab.StateBytes())
	if err := c.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("straggler world diverges from serial reference")
	}
}

// TestCrashRecoverExactlyOnce: crash a skewed world with messages in flight,
// recover it from the reconstructed cut, finish the run, and require (a)
// byte identity with a never-crashed serial run and (b) every message record
// appearing in its destination's WAL exactly once.
func TestCrashRecoverExactlyOnce(t *testing.T) {
	tab := testTable()
	const crashAt, total, perTick, window = 14, 20, 40, 2
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			dir := t.TempDir()
			emit := testEmit(tab, 2)
			// Skew the crash point: from tick 8 the last node applies a tick
			// only once the test has dispatched the tick the window past it,
			// so it lags the rest by the whole window at the crash.
			gate := make(chan struct{}, crashAt)
			// ModeNone: no images, so the full WAL history survives for the
			// exactly-once scan (CoU's continuous checkpointer prunes sealed
			// segments) and recovery is pure message-logging replay.
			c, err := New(Options{
				Table: tab, Dir: dir, Mode: engine.ModeNone,
				Nodes: nodes, MaxSkew: window, Emit: emit, SyncEveryTick: true,
				BeforeApply: func(node int, tick uint64) {
					if node == nodes-1 && tick >= 8 {
						<-gate
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			n := len(c.Nodes())
			for tick := uint64(0); tick < crashAt; tick++ {
				if tick >= 8+window {
					gate <- struct{}{}
				}
				if err := c.Tick(worldBatch(tab, tick, perTick)); err != nil {
					t.Fatal(err)
				}
			}
			crashGated(t, c, gate)

			rc, wr, err := Recover(dir, Options{Mode: engine.ModeNone, Emit: emit, SyncEveryTick: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			if len(rc.Nodes()) != n {
				t.Fatalf("recovered %d nodes, want %d", len(rc.Nodes()), n)
			}
			if wr.WorldTick != wr.Cut+1 || wr.WorldTick > crashAt {
				t.Fatalf("recovered to tick %d (cut %d), crashed after dispatching %d", wr.WorldTick, wr.Cut, crashAt)
			}
			for tick := wr.WorldTick; tick < total; tick++ {
				if err := rc.Tick(worldBatch(tab, tick, perTick)); err != nil {
					t.Fatal(err)
				}
			}
			if err := rc.Join(); err != nil {
				t.Fatal(err)
			}
			want := serialReference(t, tab, n, window, total, perTick, emit)
			got := make([]byte, tab.StateBytes())
			if err := rc.ReadWorld(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("crash-recovered world diverges from never-crashed serial reference")
			}

			// Exactly-once: scan every node's WAL for message records and
			// check each (origin, originTick) pair lands in its owner's log
			// exactly once — no loss, no double replay across the crash.
			walDirs := make([]string, n)
			for i := 0; i < n; i++ {
				walDirs[i] = rc.Nodes()[i].E.WALDir()
			}
			if err := rc.Close(); err != nil {
				t.Fatal(err)
			}
			type key struct {
				node   int
				origin int32
				tick   uint64
			}
			seen := map[key]int{}
			for i := 0; i < n; i++ {
				r, err := wal.NewReader(walDirs[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				for {
					_, payload, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					// Every record of a logged tick is a message record;
					// the tick's head carries origin 0xFFFFFFFF.
					origin, originTick, _, err := wal.SplitMessage(payload[1:])
					if err != nil {
						t.Fatal(err)
					}
					if origin != math.MaxUint32 {
						seen[key{node: i, origin: int32(origin), tick: originTick}]++
					}
				}
				r.Close()
			}
			for k, count := range seen {
				if count != 1 {
					t.Fatalf("message (origin %d, tick %d) appears %d times in node %d's WAL",
						k.origin, k.tick, count, k.node)
				}
			}
			// Completeness: every emission with a delivery tick inside the run
			// must be present (origin ticks 0..total-window-2).
			cellsPerObj := uint32(tab.CellsPerObject())
			m := rc.Routing().Current()
			for j := 0; j < n; j++ {
				for tick := uint64(0); tick+window+1 < total; tick++ {
					for _, u := range emit(j, tick) {
						dest := m.Owner(int(u.Cell / cellsPerObj))
						if seen[key{node: dest, origin: int32(j), tick: tick}] != 1 {
							t.Fatalf("emission (origin %d, tick %d) missing from node %d's WAL", j, tick, dest)
						}
					}
				}
			}
		})
	}
}

// TestCrashRecoverWithStaggeredCuts: the same crash/recover identity with
// worker-side checkpoints on, so recovery starts from genuinely staggered
// per-node images and rolls each node forward through its own log.
func TestCrashRecoverWithStaggeredCuts(t *testing.T) {
	tab := testTable()
	const crashAt, total, perTick, window = 17, 24, 40, 3
	dir := t.TempDir()
	emit := testEmit(tab, 2)
	opts := Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		Nodes: 2, MaxSkew: window, CheckpointEvery: 6, Emit: emit, SyncEveryTick: true,
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Nodes())
	for tick := uint64(0); tick < crashAt; tick++ {
		if err := c.Tick(worldBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, CheckpointEvery: 6, Emit: emit, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if wr.WorldTick == 0 {
		t.Fatal("recovered to a fresh world")
	}
	for tick := wr.WorldTick; tick < total; tick++ {
		if err := rc.Tick(worldBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Join(); err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, tab, n, window, total, perTick, emit)
	got := make([]byte, tab.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered world diverges from serial reference")
	}
}

// sickDev is a backup whose medium died once sick is set: every write and
// sync fails.
type sickDev struct {
	disk.Device
	sick *atomic.Bool
}

func (d sickDev) WriteAt(p []byte, off int64) (int, error) {
	if d.sick.Load() {
		return 0, errors.New("disk: medium died")
	}
	return d.Device.WriteAt(p, off)
}

func (d sickDev) Sync() error {
	if d.sick.Load() {
		return errors.New("disk: medium died")
	}
	return d.Device.Sync()
}

// TestDegradedNodeKeepsTicking: node 0 loses a backup in a windowed world
// whose dispatch its gate keeps MaxSkew ticks ahead of it, so its
// scheduled cuts find its log ahead and cannot anchor. The node keeps
// applying, degraded; the coordinated cut, with every node caught up,
// anchors it; and the world recovers to the serial reference.
func TestDegradedNodeKeepsTicking(t *testing.T) {
	tab := testTable()
	const crashAt, total, perTick, window = 20, 26, 40, 2
	dir := t.TempDir()
	emit := testEmit(tab, 2)
	var sick atomic.Bool
	behind := make(chan struct{}, crashAt) // one token per tick node 0 may apply
	c, err := New(Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		Nodes: 2, MaxSkew: window, CheckpointEvery: 3, Emit: emit, SyncEveryTick: true,
		DeviceFactory: func(path string) (disk.Device, error) {
			dev, err := disk.OpenFile(path)
			if err == nil && filepath.Base(filepath.Dir(path)) == "node-0" && filepath.Base(path) == "backup-a.img" {
				return sickDev{Device: dev, sick: &sick}, nil
			}
			return dev, err
		},
		BeforeApply: func(node int, _ uint64) {
			if node == 0 {
				<-behind
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Nodes())
	sick.Store(true)
	// Node 0 may apply tick T once Tick(T+window-1) has returned, so its log
	// is ahead of it at every tick end until the coordinated cut lets it
	// catch up.
	for tick := uint64(0); tick < crashAt; tick++ {
		if tick == crashAt-4 {
			for range window - 1 {
				behind <- struct{}{}
			}
			if _, err := c.CheckpointWorld(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Tick(worldBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
		if tick+1 >= window {
			behind <- struct{}{}
		}
	}
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if !c.Nodes()[0].E.CheckpointDegraded() {
		t.Fatal("node 0 never degraded")
	}
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeCopyOnUpdate, Emit: emit, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for tick := wr.WorldTick; tick < total; tick++ {
		if err := rc.Tick(worldBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Join(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, tab.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialReference(t, tab, n, window, total, perTick, emit)) {
		t.Fatal("recovered world diverges from serial reference")
	}
}

// TestTornRefusal: a node log that lost its last ticks moves the cut back
// behind another node's image; recovery must refuse with a typed TornError
// instead of resuming.
func TestTornRefusal(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2, MaxSkew: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 12; tick++ {
		if tick == 8 {
			if _, err := c.CheckpointWorld(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Tick(worldBatch(tab, tick, 20)); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 alone checkpoints the last tick, with the workers idle.
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if err := c.cutNode(1, 11); err != nil {
		t.Fatal(err)
	}
	if err := c.writeManifest(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Node 0's log loses ticks 9 on, as a hard kill without SyncEveryTick can
	// drop them: the world resumes at 9 at the latest (earlier where node 0's
	// images let it prune its log), behind node 1's image at 11.
	rewriteLog(t, filepath.Join(NodeDir(dir, 0), "wal"), 0, func(tick uint64, _ int) bool { return tick < 9 })
	logs := func() map[string][]byte {
		files := map[string][]byte{}
		for i := 0; i < 2; i++ {
			segs, _ := filepath.Glob(filepath.Join(NodeDir(dir, i), "wal", "*"))
			for _, seg := range segs {
				b, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				files[seg] = b
			}
		}
		return files
	}
	before := logs()
	_, _, err = Recover(dir, Options{Mode: engine.ModeCopyOnUpdate})
	var torn *TornError
	if !errors.As(err, &torn) {
		t.Fatalf("recovery of a world with a lost log tail returned %v, want *TornError", err)
	}
	if torn.Cut > 9 || torn.Tick <= torn.Cut {
		t.Fatalf("torn error %+v, want a node past a cut that resumes at 9 at the latest", torn)
	}
	if !reflect.DeepEqual(logs(), before) {
		t.Fatal("the refused recovery changed the nodes' logs")
	}
}

// rewriteLog rewrites the log in dir to keep only the records keep accepts;
// k is a record's place within its tick, from 1. It returns the number of
// records the log held at tick at.
func rewriteLog(t *testing.T, dir string, at uint64, keep func(tick uint64, k int) bool) int {
	t.Helper()
	r, err := wal.NewReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		tick    uint64
		payload []byte
	}
	var kept []rec
	k, prev, atCount := 0, uint64(0), 0
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 || tick != prev {
			k, prev = 0, tick
		}
		k++
		if tick == at {
			atCount++
		}
		if keep(tick, k) {
			kept = append(kept, rec{tick, append([]byte(nil), payload...)})
		}
	}
	r.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range kept {
		if err := w.Append(rec.tick, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return atCount
}

// runLoggedWorld runs a synced two-node world with a window and Emit for
// total ticks, closes it, and returns its directory, node count and Emit.
func runLoggedWorld(t *testing.T, total, perTick, window int) (string, int, EmitFunc) {
	t.Helper()
	tab := testTable()
	dir := t.TempDir()
	emit := testEmit(tab, 2)
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeNone, Nodes: 2, MaxSkew: window, Emit: emit, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Nodes())
	if n != 2 {
		t.Fatalf("world folded to %d nodes", n)
	}
	for tick := uint64(0); tick < uint64(total); tick++ {
		if err := c.Tick(worldBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, n, emit
}

// waitApplied blocks until node i has applied n ticks: every apply
// broadcasts the cluster's cond.
func waitApplied(c *Cluster, i int, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.applied[i] < n {
		c.cond.Wait()
	}
}

// crashGated crashes a world whose workers may be parked in a BeforeApply
// gate: it marks the world crashed and opens the gate, so every parked
// worker drops its tick instead of applying it, then crashes it.
func crashGated(t *testing.T, c *Cluster, gate chan struct{}) {
	t.Helper()
	c.mu.Lock()
	c.crashed = true
	c.mu.Unlock()
	close(gate)
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the directory tree under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), b, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// noInbox fails the test if a node directory under root holds an inbox.
func noInbox(t *testing.T, root string, nodes int) {
	t.Helper()
	for i := 0; i < nodes; i++ {
		if _, err := os.Stat(filepath.Join(NodeDir(root, i), "inbox")); !os.IsNotExist(err) {
			t.Fatalf("node %d holds an inbox (stat: %v)", i, err)
		}
	}
}

// TestTornTickIsCut: a hard kill left node 1's last tick torn after its
// first record, while node 0's log holds it whole. Recovery must cut the
// tick — no node can have applied a tick before every log held it — resume
// byte-identical to the serial reference at the tick before it, and finish
// the run byte-identical.
func TestTornTickIsCut(t *testing.T) {
	const total, perTick, window = 12, 40, 2
	dir, n, emit := runLoggedWorld(t, total, perTick, window)
	noInbox(t, dir, n)
	const last = total - 1
	atLast := rewriteLog(t, filepath.Join(NodeDir(dir, 1), "wal"), last, func(tick uint64, k int) bool {
		return tick < last || k == 1
	})
	if atLast < 2 {
		t.Fatalf("node 1 logged %d records at tick %d, want a tick to tear", atLast, last)
	}
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeNone, Emit: emit, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if wr.WorldTick != last || wr.Cut != last-1 {
		t.Fatalf("resumed at %d (cut %d), want %d", wr.WorldTick, wr.Cut, last)
	}
	tab := testTable()
	got := make([]byte, tab.StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialReference(t, tab, n, window, last, perTick, emit)) {
		t.Fatal("recovered world diverges from the serial reference at the cut")
	}
	for tick := uint64(last); tick < total+2; tick++ {
		if err := rc.Tick(worldBatch(tab, tick, perTick)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Join(); err != nil {
		t.Fatal(err)
	}
	if err := rc.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialReference(t, tab, n, window, total+2, perTick, emit)) {
		t.Fatal("resumed world diverges from the serial reference")
	}
}

// TestWindowCrashStates enumerates the crash states of a small logged world:
// two nodes, a window W of 1 and 2 (1 alone under -short), d ticks
// dispatched, staggered cuts every other tick. A BeforeApply gate holds node
// i once it has applied a_i ticks, for every progress vector the window
// allows at the crash (d-W <= a_i <= d); the world then crashes, and each
// node's last dispatched tick is left whole, torn after its first record, or
// lost, as a hard kill without SyncEveryTick can leave it (unless the node's
// two images both cover it and its log no longer holds it). Every state must
// either recover byte-identical to the barrier world at the cut C — the last
// tick every node's log holds whole, or a node's manifest cut where newer —
// and finish the run byte-identical to the serial reference, or refuse with
// a *TornError naming a node whose image is past C.
func TestWindowCrashStates(t *testing.T) {
	tab := gamestate.Table{Rows: 4096, Cols: 8, CellSize: 4, ObjSize: 512}
	const d, total, perTick, every = 6, 9, 20, 2
	windows := []int{1, 2}
	if testing.Short() {
		windows = windows[:1]
	}
	emit := testEmit(tab, 6)
	opts := Options{Mode: engine.ModeCopyOnUpdate, CheckpointEvery: every, Emit: emit, SyncEveryTick: true}
	const whole, tornTick, lost = 0, 1, 2
	states, refused := 0, 0
	for _, w := range windows {
		for a0 := d - w; a0 <= d; a0++ {
			for a1 := d - w; a1 <= d; a1++ {
				progress := [2]int{a0, a1}
				dir := t.TempDir()
				gate := make(chan struct{})
				o := opts
				o.Table, o.Dir, o.Nodes, o.MaxSkew = tab, dir, 2, w
				o.BeforeApply = func(node int, tick uint64) {
					if tick >= uint64(progress[node]) {
						<-gate
					}
				}
				c, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				for tick := uint64(0); tick < d; tick++ {
					if err := c.Tick(worldBatch(tab, tick, perTick)); err != nil {
						t.Fatal(err)
					}
				}
				for i, a := range progress {
					waitApplied(c, i, uint64(a))
				}
				crashGated(t, c, gate)
				noInbox(t, dir, 2)
				man, err := ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				var floor [2]uint64 // the horizon's manifest-cut raise
				for _, cut := range man.NodeCuts {
					floor[cut.Node] = cut.AsOfTick + 1
				}
				for tears := 0; tears < 9; tears++ {
					name := fmt.Sprintf("W=%d/progress=%v/tears=%d,%d", w, progress, tears%3, tears/3)
					states++
					state := t.TempDir()
					copyTree(t, dir, state)
					resume := uint64(total)
					for i, tear := range []int{tears % 3, tears / 3} {
						end := uint64(d)
						if tear != whole {
							at := rewriteLog(t, filepath.Join(NodeDir(state, i), "wal"), d-1, func(tick uint64, k int) bool {
								return tick < d-1 || tear == tornTick && k == 1
							})
							switch {
							case at == 0: // both images cover the tick and the log is pruned past it
							case at < 2:
								t.Fatalf("%s: node %d logged %d records at tick %d, want a tick to tear", name, i, at, d-1)
							default:
								end = d - 1
							}
						}
						resume = min(resume, max(end, floor[i]))
					}
					ro := opts
					rc, wr, err := Recover(state, ro)
					var torn *TornError
					if errors.As(err, &torn) {
						refused++
						e, img, err := engine.RecoverFrom(nodeEngineOptions(o, NodeDir(state, torn.Node)))
						if err != nil {
							t.Fatal(err)
						}
						e.Close()
						if torn.Cut != resume || torn.Tick != img.AsOfTick+1 || !img.Restored || img.AsOfTick < resume {
							t.Fatalf("%s: refused with %v (image %+v), want a node whose image is past the cut at %d",
								name, torn, img.Result, resume)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := make([]byte, tab.StateBytes())
					if err := rc.ReadWorld(got); err != nil {
						t.Fatal(err)
					}
					if wr.WorldTick != resume || !bytes.Equal(got, serialReference(t, tab, 2, uint64(w), resume, perTick, emit)) {
						t.Fatalf("%s: resumed at %d, want the barrier world at %d", name, wr.WorldTick, resume)
					}
					for tick := resume; tick < total; tick++ {
						if err := rc.Tick(worldBatch(tab, tick, perTick)); err != nil {
							t.Fatal(err)
						}
					}
					if err := rc.Join(); err != nil {
						t.Fatal(err)
					}
					if err := rc.ReadWorld(got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, serialReference(t, tab, 2, uint64(w), total, perTick, emit)) {
						t.Fatalf("%s: resumed world diverges from the serial reference", name)
					}
					if err := rc.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	t.Logf("%d crash states: %d recovered byte-identical, %d refused as torn", states, states-refused, refused)
}
