package engine

import (
	"math/rand"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wal"
)

// TestCommitContract holds every public tick entry point to the one commit
// ordering (DESIGN.md, "Tick commit"): whichever way a tick enters the
// engine it is counted, timed, kept under KeepTickStats, fsynced exactly
// when SyncEveryTick says so, and announced to commit subscribers. ModeNone
// keeps checkpoints — and with them log rotation's own fsync — out of the
// histogram count.
func TestCommitContract(t *testing.T) {
	const ticks, perTick = 12, 20
	tab := shardTable()
	// Each entry point drives one tick carrying batch b.
	entries := []struct {
		name    string
		standby bool
		tick    func(e *Engine, tick uint64, b []wal.Update) error
	}{
		{"ApplyTick", false, func(e *Engine, _ uint64, b []wal.Update) error { return e.ApplyTick(b) }},
		{"ApplyTickParallel", false, func(e *Engine, _ uint64, b []wal.Update) error { return e.ApplyTickParallel(b) }},
		{"ApplyTickEnvelopes", false, func(e *Engine, tick uint64, b []wal.Update) error {
			return applyLogged(e, []Envelope{
				{Origin: -1, Updates: b[:perTick/2]},
				{Origin: 1, OriginTick: tick, Updates: b[perTick/2:]},
			})
		}},
		{"IngestReplicated", true, func(e *Engine, tick uint64, b []wal.Update) error {
			return e.IngestReplicated(tick, wal.EncodeRuns([]byte{recUpdateRuns}, b))
		}},
	}
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	counter := func(name string) uint64 {
		v, ok := telemetry.CounterValue(name)
		if !ok {
			t.Fatalf("counter %s is not registered", name)
		}
		return v
	}
	fsyncs := func() uint64 {
		s, ok := telemetry.HistogramSnapshot("wal_fsync_ns")
		if !ok {
			t.Fatal("histogram wal_fsync_ns is not registered")
		}
		return s.Count
	}
	for _, en := range entries {
		for _, sync := range []bool{true, false} {
			name := en.name + "/buffered"
			if sync {
				name = en.name + "/SyncEveryTick"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{
					Table: tab, Dir: t.TempDir(), Mode: ModeNone, Shards: 2,
					SyncEveryTick: sync, KeepTickStats: true,
				}
				var e *Engine
				var err error
				if en.standby {
					e, err = OpenStandby(opts, nil)
				} else {
					e, err = Open(opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				sub := e.SubscribeCommits()
				defer sub.Close()

				ticks0, upd0, fsync0 := counter("engine_ticks_total"), counter("engine_updates_applied_total"), fsyncs()
				rng := rand.New(rand.NewSource(14))
				for i := uint64(0); i < ticks; i++ {
					if err := en.tick(e, i, randomBatch(rng, tab.NumCells(), perTick)); err != nil {
						t.Fatalf("tick %d: %v", i, err)
					}
				}

				if got := counter("engine_ticks_total") - ticks0; got != ticks {
					t.Errorf("engine_ticks_total advanced by %d, want %d", got, ticks)
				}
				if got := counter("engine_updates_applied_total") - upd0; got != ticks*perTick {
					t.Errorf("engine_updates_applied_total advanced by %d, want %d", got, ticks*perTick)
				}
				wantSyncs := uint64(0)
				if sync {
					wantSyncs = ticks
				}
				if got := fsyncs() - fsync0; got != wantSyncs {
					t.Errorf("wal_fsync_ns count advanced by %d, want %d", got, wantSyncs)
				}
				st := e.Stats()
				if st.Ticks != ticks || st.UpdatesApplied != ticks*perTick {
					t.Errorf("Stats: %d ticks / %d updates, want %d / %d", st.Ticks, st.UpdatesApplied, ticks, ticks*perTick)
				}
				if st.ApplyTotal <= 0 {
					t.Errorf("Stats.ApplyTotal = %v, want > 0", st.ApplyTotal)
				}
				if len(st.TickTimings) != ticks {
					t.Errorf("KeepTickStats kept %d timings, want %d", len(st.TickTimings), ticks)
				}
				select {
				case got := <-sub.C:
					if got != ticks-1 {
						t.Errorf("commit subscriber saw tick %d, want %d", got, ticks-1)
					}
				default:
					t.Error("commit subscriber saw no tick")
				}
				if e.NextTick() != ticks {
					t.Errorf("NextTick = %d, want %d", e.NextTick(), ticks)
				}
			})
		}
	}
}
