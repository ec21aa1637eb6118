package session

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/wal"
)

// TestGatewayOverWindowedCluster runs the gateway over a MaxSkew = 2 world
// with one node gated as a straggler: a tick commits only when every node
// has applied it, so the fan-out must stop at the straggler's tick while the
// coordinator runs ahead, and after the release and a Join every committed
// tick must have been delivered exactly once, in order, with the world equal
// to a serial engine fed the same canonical batches.
func TestGatewayOverWindowedCluster(t *testing.T) {
	tab := testTable()
	const window, stuckAt, total = 2, 3, 12
	gate := make(chan struct{})
	c, err := cluster.New(cluster.Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2, MaxSkew: window,
		BeforeApply: func(node int, tick uint64) {
			if node == 0 && tick == stuckAt {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := newTestGateway(t, Options{World: ClusterWorld{C: c}})
	s, err := g.Connect(1, Range{Lo: 0, Hi: tab.NumObjects()})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Open(engine.Options{Table: tab, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	step := func(tick int) {
		t.Helper()
		// One intent per partition, so every tick touches both nodes.
		cpo := uint32(tab.CellsPerObject())
		intents := []wal.Update{
			{Cell: uint32(tick) * cpo, Value: uint32(tick)<<8 | 1},
			{Cell: uint32(tab.NumObjects()-1-tick) * cpo, Value: uint32(tick)<<8 | 2},
		}
		if err := s.Submit(intents); err != nil {
			t.Fatal(err)
		}
		batch, err := g.Step()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	// With node 0 stuck applying stuckAt, the window lets the coordinator
	// run through stuckAt+window-1 — but nothing at or past stuckAt commits.
	for tick := 0; tick < stuckAt+window; tick++ {
		step(tick)
	}
	if err := g.AwaitDelivered(stuckAt-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := g.Delivered(); got != stuckAt {
		t.Fatalf("delivered watermark %d with node 0 stuck at tick %d", got, stuckAt)
	}
	close(gate)
	for tick := stuckAt + window; tick < total; tick++ {
		step(tick)
	}
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if err := g.AwaitDelivered(total-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < total; tick++ {
		select {
		case d := <-s.Deltas():
			if d.Tick != tick || len(d.Updates) != 2 {
				t.Fatalf("delta %d: tick %d with %d updates", tick, d.Tick, len(d.Updates))
			}
		default:
			t.Fatalf("tick %d was never delivered", tick)
		}
	}
	select {
	case d := <-s.Deltas():
		t.Fatalf("tick %d delivered twice", d.Tick)
	default:
	}
	world := make([]byte, tab.StateBytes())
	if err := c.ReadWorld(world); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(world, ref.Store().Slab()) {
		t.Fatal("windowed world behind the gateway diverges from the serial reference")
	}
}
