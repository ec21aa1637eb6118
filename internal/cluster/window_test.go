package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

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
// ApplyTick, and no inbox is opened. ModeNone keeps the full history
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
				if _, err := os.Stat(inboxDir(c.opts.Dir, i)); !os.IsNotExist(err) {
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
	deadline := time.Now().Add(5 * time.Second)
	for c.AppliedTick(1) != 5+window+1 {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 applied %d ticks, want %d (window not open)", c.AppliedTick(1), 5+window+1)
		}
		time.Sleep(time.Millisecond)
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
			// ModeNone: no images, so the full WAL history survives for the
			// exactly-once scan (CoU's continuous checkpointer prunes sealed
			// segments) and recovery is pure message-logging replay.
			c, err := New(Options{
				Table: tab, Dir: dir, Mode: engine.ModeNone,
				Nodes: nodes, MaxSkew: window, Emit: emit, SyncEveryTick: true,
				// Skew the crash point: the last node lags behind the rest.
				BeforeApply: func(node int, tick uint64) {
					if node == nodes-1 && tick >= 8 {
						time.Sleep(2 * time.Millisecond)
					}
				},
			})
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
					env, err := engine.DecodeEnvelopeRecord(payload)
					if err != nil {
						t.Fatal(err)
					}
					if env.Origin >= 0 {
						seen[key{node: i, origin: env.Origin, tick: env.OriginTick}]++
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
// per-node images and rolls each node forward out of the inbox store.
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

// TestTornRefusal: an inbox that lost its records no longer bounds the
// world; recovery must refuse with a typed TornError instead of resuming.
func TestTornRefusal(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	c, err := New(Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Nodes: 2, MaxSkew: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 8; tick++ {
		if err := c.Tick(worldBatch(tab, tick, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate total inbox loss on node 0.
	if err := os.RemoveAll(inboxDir(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(inboxDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(dir, Options{Mode: engine.ModeCopyOnUpdate})
	var torn *TornError
	if !errors.As(err, &torn) {
		t.Fatalf("recovery of a world with a lost inbox returned %v, want *TornError", err)
	}
	if torn.Tick != 8 || torn.Cut != 0 {
		t.Fatalf("torn error %+v, want tick 8 against cut 0", torn)
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

// recoverWorld recovers the world under dir and returns its bytes and the
// recovery report.
func recoverWorld(t *testing.T, dir string, emit EmitFunc) ([]byte, *WorldRecovery) {
	t.Helper()
	rc, wr, err := Recover(dir, Options{Mode: engine.ModeNone, Emit: emit, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testTable().StateBytes())
	if err := rc.ReadWorld(got); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	return got, wr
}

// TestRollForwardMergesInbox: node 1's WAL lost a whole tick and was torn
// inside its last tick, two ticks behind the cut. Recovery merges the node's
// inbox with its WAL — every tick the inbox carries replays from the inbox —
// so the node rolls forward through the lost tick and the torn one, and the
// world comes back byte-identical to the serial reference. A second recovery
// of the healed directory reaches the same bytes with nothing rolled forward:
// the heal appended the ticks past the WAL's torn end, and the tick lost
// inside the WAL still replays from the inbox.
func TestRollForwardMergesInbox(t *testing.T) {
	const total, perTick, window = 16, 40, 2
	dir, n, emit := runLoggedWorld(t, total, perTick, window)

	// Rewrite node 1's WAL: drop tick last-1 and cut tick last after its
	// first record, a frame boundary inside the tick.
	const last = total - 3
	atLast := rewriteLog(t, filepath.Join(NodeDir(dir, 1), "wal"), last, func(tick uint64, k int) bool {
		return tick < last-1 || tick == last && k == 1
	})
	if atLast < 2 {
		t.Fatalf("node 1 logged %d records at tick %d, want a tick to tear", atLast, last)
	}

	want := serialReference(t, testTable(), n, window, total, perTick, emit)
	for pass, wantRolled := range []uint64{total - 1 - last, 0} {
		got, wr := recoverWorld(t, dir, emit)
		if wr.WorldTick != total || wr.RolledForward[0] != 0 || wr.RolledForward[1] != wantRolled {
			t.Errorf("pass %d: resumed at %d with %v rolled forward, want %d with [0 %d]",
				pass, wr.WorldTick, wr.RolledForward, total, wantRolled)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: recovered world diverges from the serial reference", pass)
		}
	}
}

// TestTornInboxTickGivesWayToWAL: a hard kill flushed node 1's inbox only
// part way into its last tick, while the node's WAL holds that tick whole.
// The inbox still carries the tick, but the WAL holds more of it, so the
// WAL's copy replays and the world comes back byte-identical to the serial
// reference rather than silently missing the tick's lost envelopes.
func TestTornInboxTickGivesWayToWAL(t *testing.T) {
	const total, perTick, window = 12, 40, 2
	dir, n, emit := runLoggedWorld(t, total, perTick, window)
	const last = total - 1
	atLast := rewriteLog(t, inboxDir(dir, 1), last, func(tick uint64, k int) bool {
		return tick < last || k == 1
	})
	if atLast < 2 {
		t.Fatalf("node 1's inbox held %d records at tick %d, want a tick to tear", atLast, last)
	}
	got, wr := recoverWorld(t, dir, emit)
	if wr.WorldTick != total || wr.RolledForward[0] != 0 || wr.RolledForward[1] != 0 {
		t.Errorf("resumed at %d with %v rolled forward, want %d with nothing", wr.WorldTick, wr.RolledForward, total)
	}
	if !bytes.Equal(got, serialReference(t, testTable(), n, window, total, perTick, emit)) {
		t.Fatal("recovered world diverges from the serial reference")
	}
}
