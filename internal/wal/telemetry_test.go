package wal

import (
	"testing"

	"repro/internal/telemetry"
)

// TestRotateObservesSeal: sealing a segment feeds wal_seal_ns once and
// leaves wal_fsync_ns alone, so the fsync count per tick keeps counting
// only the syncs a tick asks for.
func TestRotateObservesSeal(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	count := func(name string) uint64 {
		s, ok := telemetry.HistogramSnapshot(name)
		if !ok {
			t.Fatalf("histogram %s is not registered", name)
		}
		return s.Count
	}
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	seals, fsyncs := count("wal_seal_ns"), count("wal_fsync_ns")
	if err := l.Rotate(1); err != nil {
		t.Fatal(err)
	}
	if got := count("wal_seal_ns") - seals; got != 1 {
		t.Errorf("wal_seal_ns observed %d seals, want 1", got)
	}
	if got := count("wal_fsync_ns") - fsyncs; got != 0 {
		t.Errorf("wal_fsync_ns observed %d syncs during a rotate, want 0", got)
	}
}
