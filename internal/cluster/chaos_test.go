package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
)

// TestMigrationAbortOnSeveredStream cuts the range-transfer connection in
// the middle of a live migration and proves the clean-abort contract: every
// world tick still applies (zero lost ticks), ownership never changes, the
// abort surfaces as a typed ErrMigrationAborted, the world stays
// byte-identical to the single-node reference, and a later migration of the
// same range succeeds.
func TestMigrationAbortOnSeveredStream(t *testing.T) {
	tab := testTable()
	// Sever the sender→receiver direction mid-frame once the bootstrap
	// snapshot (128 objects × 512 B plus framing) and a few tick frames have
	// passed: the stream dies while ticks are being fed.
	var wrapped *chaos.Conn
	c, err := New(Options{
		Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2,
		MigrationPipe: func() (net.Conn, net.Conn) {
			sc, rc := net.Pipe()
			wrapped = chaos.WrapConn(sc, 1, "cluster/mig", chaos.ConnFaults{
				SeverAfterBytes: 128*512 + 2048,
			})
			return wrapped, rc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const perTick, pre, live, post = 300, 4, 8, 4
	tick := 0
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Tick(testBatch(tab, tick, perTick)); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
			tick++
		}
	}
	run(pre)
	if _, err := c.StartMigration(0, 128, 1); err != nil {
		t.Fatal(err)
	}
	run(live) // the sever fires in here; every tick must still apply
	if !wrapped.Severed() {
		t.Fatal("chaos conn never severed — threshold too high for this workload")
	}
	aborted := c.MigrationAborted()
	if !errors.Is(aborted, chaos.ErrInjected) || !errors.Is(aborted, ErrMigrationAborted) {
		t.Fatalf("MigrationAborted = %v, want ErrMigrationAborted wrapping the injected sever", aborted)
	}
	if _, err := c.FinishMigration(); !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("FinishMigration after the sever: %v, want ErrMigrationAborted", err)
	}
	// Ownership unchanged: the source kept serving the range throughout.
	if got := c.Routing().Current().Owner(0); got != 0 {
		t.Fatalf("object 0 owned by node %d after the abort, want 0", got)
	}
	run(post)
	if c.NextTick() != uint64(tick) {
		t.Fatalf("cluster at tick %d, want %d (zero lost ticks)", c.NextTick(), tick)
	}
	if !bytes.Equal(world(t, c), referenceWorld(t, tab, tick, perTick)) {
		t.Fatal("world diverges from the single-node reference after the aborted migration")
	}
	// The same range migrates cleanly on retry (default healthy pipe state
	// is a fresh chaos conn whose threshold the retry re-arms — generous
	// enough here to never fire before the cut).
	c.opts.MigrationPipe = nil
	if _, err := c.StartMigration(0, 128, 1); err != nil {
		t.Fatal(err)
	}
	if c.MigrationAborted() != nil {
		t.Fatal("StartMigration did not clear the sticky abort")
	}
	run(2)
	if _, err := c.FinishMigration(); err != nil {
		t.Fatalf("retry migration: %v", err)
	}
	if got := c.Routing().Current().Owner(0); got != 1 {
		t.Fatalf("object 0 owned by node %d after the retry, want 1", got)
	}
	run(2)
	if !bytes.Equal(world(t, c), referenceWorld(t, tab, tick, perTick)) {
		t.Fatal("world diverges after the retried migration")
	}
}

// TestBarrierTimeout stalls one node's apply behind a gate past the
// configured deadline and checks the coordinator gets a typed timeout naming
// the straggler instead of hanging, and that the cluster wedges afterwards —
// for an action tick at the barrier and for the window wait at MaxSkew = 2.
// The gate is released only after the assertions, so nothing depends on how
// long a stall lasts and Close has no sleep to wait out.
func TestBarrierTimeout(t *testing.T) {
	tab := testTable()
	for _, tc := range []struct {
		window int
		op     string
	}{{0, "actions"}, {2, "tick"}} {
		t.Run(fmt.Sprintf("maxskew=%d", tc.window), func(t *testing.T) {
			gate := make(chan struct{})
			c, err := New(Options{
				Table: tab, Dir: t.TempDir(), Mode: engine.ModeCopyOnUpdate, Nodes: 2,
				MaxSkew: tc.window, BarrierTimeout: 50 * time.Millisecond,
				ReplayAction: func(uint64, []byte, *engine.TickWriter) error { return nil },
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
			if tc.op == "actions" {
				err = c.TickActions([][]byte{nil, []byte("act")})
			} else {
				for tick := 1; tick <= 1+tc.window && err == nil; tick++ {
					err = c.Tick(testBatch(tab, tick, 100))
				}
			}
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("stalled wait returned %v, want *TimeoutError", err)
			}
			if !te.Timeout() || te.Op != tc.op || te.Tick != uint64(1+tc.window) {
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
