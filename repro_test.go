package repro

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// smallSimConfig scales the default down for fast facade tests.
func smallSimConfig() SimConfig {
	cfg := DefaultSimConfig()
	cfg.Table.Rows = 50_000
	cfg.Params.MemBandwidth /= 10
	cfg.Params.DiskBandwidth /= 10
	return cfg
}

func TestFacadeSimulate(t *testing.T) {
	cfg := smallSimConfig()
	src, err := NewZipfianTrace(ZipfianTraceConfig{
		Table:          cfg.Table,
		UpdatesPerTick: 500,
		Ticks:          60,
		Skew:           0.8,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(CopyOnUpdate, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != CopyOnUpdate || res.Ticks != 60 {
		t.Errorf("unexpected result header: %+v", res.Method)
	}
	if res.RecoveryTime <= 0 {
		t.Error("no recovery estimate")
	}
}

func TestFacadeDefaults(t *testing.T) {
	if DefaultParams().TickFreq != 30 {
		t.Error("default params lost Table 3 values")
	}
	if DefaultTable().NumCells() != 10_000_000 {
		t.Error("default table lost Table 4 geometry")
	}
	if DefaultZipfianTraceConfig().UpdatesPerTick != 64_000 {
		t.Error("default trace config lost Table 4 values")
	}
	if DefaultGameConfig().Units != 400_128 {
		t.Error("default game config lost Table 5 values")
	}
	if len(Methods()) != 6 {
		t.Error("Methods() incomplete")
	}
}

func TestFacadeGameTrace(t *testing.T) {
	cfg := DefaultGameConfig()
	cfg.Units = 2000
	src, stats, err := GenerateGameTrace(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumTicks() != 20 || stats.Ticks != 20 {
		t.Errorf("trace/stat shape: %d/%d", src.NumTicks(), stats.Ticks)
	}
	if stats.Units != 2000 || stats.Attrs != 13 {
		t.Errorf("stats: %+v", stats)
	}
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Table().NumCells(); got != 2000*13 {
		t.Errorf("battle table has %d cells, want %d", got, 2000*13)
	}
	g.Step()
	if g.TickIndex() != 1 {
		t.Errorf("battle at tick %d after one step", g.TickIndex())
	}
}

// TestFacadeReplicationFailover drives the public replication API end to
// end: primary → warm standby over a pipe → primary death → promotion,
// with the promoted engine byte-identical to the primary's final state.
func TestFacadeReplicationFailover(t *testing.T) {
	tab := Table{Rows: 1024, Cols: 8, CellSize: 4, ObjSize: 512}
	opts := func(dir string) EngineOptions {
		return EngineOptions{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate}
	}
	p, err := OpenEngine(opts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	apply := func(from, to int) {
		t.Helper()
		for tick := from; tick < to; tick++ {
			batch := []Update{{Cell: uint32(tick % tab.NumCells()), Value: uint32(tick) + 7}}
			if err := p.ApplyTick(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(0, 20)

	pc, sc := net.Pipe()
	sb, err := StartStandby(opts(t.TempDir()), sc)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := StartPrimary(p, pc, ShipperOptions{MaxLagTicks: 4})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		t.Fatalf("standby bootstrap failed: %v", sb.Err())
	}
	apply(20, 50)
	if err := sh.AwaitAck(49, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sh.Stop(); err != nil {
		t.Fatalf("shipper stream error: %v", err)
	}
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.NextTick() != 50 {
		t.Fatalf("promoted at tick %d, want 50", promoted.NextTick())
	}
	if !bytes.Equal(promoted.Store().Slab(), p.Store().Slab()) {
		t.Fatal("promoted standby differs from primary state")
	}
}
