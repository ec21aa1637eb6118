package engine

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/recovery"
	"repro/internal/wal"
)

func TestEnvelopeRecordRoundtrip(t *testing.T) {
	cases := []Envelope{
		{Origin: -1, Updates: []wal.Update{{Cell: 3, Value: 7}, {Cell: 100, Value: 9}}},
		{Origin: -1, Updates: nil},
		{Origin: 2, OriginTick: 41, Updates: []wal.Update{{Cell: 12, Value: 0xdead}}},
		{Origin: 0, OriginTick: 0, Updates: nil},
	}
	// Each case twice: as the inbox encodes it, and as the engine logs it.
	var bodies [][]byte
	for _, env := range cases {
		bodies = append(bodies, EncodeEnvelopeRecord(nil, env), appendRunRecord(nil, env.Origin, env.OriginTick, env.Updates))
	}
	for i, body := range bodies {
		env := cases[i/2]
		got, err := DecodeEnvelopeRecord(body)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if env.Origin < 0 {
			if got.Origin >= 0 {
				t.Fatalf("case %d: world envelope decoded with origin %d", i, got.Origin)
			}
		} else if got.Origin != env.Origin || got.OriginTick != env.OriginTick {
			t.Fatalf("case %d: origin (%d,%d), want (%d,%d)",
				i, got.Origin, got.OriginTick, env.Origin, env.OriginTick)
		}
		if len(got.Updates) != len(env.Updates) {
			t.Fatalf("case %d: %d updates, want %d", i, len(got.Updates), len(env.Updates))
		}
		for j := range got.Updates {
			if got.Updates[j] != env.Updates[j] {
				t.Fatalf("case %d update %d: %+v != %+v", i, j, got.Updates[j], env.Updates[j])
			}
		}
	}
	if _, err := DecodeEnvelopeRecord([]byte{recInstall, 0, 0}); err == nil {
		t.Fatal("install record decoded as envelope")
	}
}

// TestEnvelopeTicksRecover crashes an engine fed with mixed world+message
// envelopes and checks both recovery paths replay the message records.
func TestEnvelopeTicksRecover(t *testing.T) {
	table := testTable()
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	e, err := Open(Options{Table: table, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(table)
	cells := table.NumObjects() * table.CellsPerObject()
	for tick := 0; tick < 12; tick++ {
		world := randomBatch(rng, cells, 40)
		msg := randomBatch(rng, cells, 3)
		envs := []Envelope{
			{Origin: -1, Updates: world},
			{Origin: 1, OriginTick: uint64(tick), Updates: msg},
		}
		if err := e.ApplyTickEnvelopes(envs); err != nil {
			t.Fatal(err)
		}
		ref.apply(world)
		ref.apply(msg)
	}
	if tick := e.NextTick(); tick != 12 {
		t.Fatalf("next tick %d, want 12", tick)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		var r *Engine
		var err error
		if parallel {
			r, _, err = RecoverFrom(Options{Table: table, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 4})
		} else {
			r, err = Open(Options{Table: table, Dir: dir, Mode: ModeCopyOnUpdate})
		}
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if r.NextTick() != 12 {
			t.Fatalf("parallel=%v: recovered to tick %d, want 12", parallel, r.NextTick())
		}
		if !ref.matches(r.Store()) {
			t.Fatalf("parallel=%v: recovered state diverges", parallel)
		}
		r.Close()
	}
}

// tailFromLog adapts a wal directory into a recovery.RecordSource.
type tailFromLog struct{ r *wal.Reader }

func (s *tailFromLog) Next() (uint64, []byte, bool, error) {
	tick, payload, err := s.r.Next()
	if err == io.EOF {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	return tick, payload, true, nil
}

func (s *tailFromLog) Close() error { return s.r.Close() }

// TestRecoverWithTail feeds an engine only a prefix of the dispatched ticks,
// crashes it, and recovers with the full dispatch stream as the extra record
// source: the engine must roll forward to the end of the stream, and the
// healed WAL must make a second, source-less recovery reach the same tick
// and bytes.
func TestRecoverWithTail(t *testing.T) {
	table := testTable()
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	inboxDir := filepath.Join(dir, "inbox")
	inbox, err := wal.Open(inboxDir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(Options{Table: table, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(table)
	cells := table.NumObjects() * table.CellsPerObject()
	const total, applied = 10, 6
	for tick := 0; tick < total; tick++ {
		world := randomBatch(rng, cells, 30)
		msg := randomBatch(rng, cells, 2)
		envs := []Envelope{
			{Origin: -1, Updates: world},
			{Origin: 0, OriginTick: uint64(tick), Updates: msg},
		}
		var buf []byte
		for _, env := range envs {
			buf = EncodeEnvelopeRecord(buf[:0], env)
			if err := inbox.Append(uint64(tick), buf); err != nil {
				t.Fatal(err)
			}
		}
		if tick < applied {
			if err := e.ApplyTickEnvelopes(envs); err != nil {
				t.Fatal(err)
			}
		}
		ref.apply(world)
		ref.apply(msg)
	}
	if err := inbox.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	tail := func() (recovery.RecordSource, error) {
		r, err := wal.NewReader(inboxDir, 0)
		if err != nil {
			return nil, err
		}
		return &tailFromLog{r: r}, nil
	}
	r, pres, err := RecoverWith(Options{Table: table, Dir: dir, Mode: ModeCopyOnUpdate, Shards: 2}, tail)
	if err != nil {
		t.Fatal(err)
	}
	if r.NextTick() != total {
		t.Fatalf("rolled forward to tick %d, want %d", r.NextTick(), total)
	}
	if pres.LastLogTick != applied-1 {
		t.Fatalf("local log ended at %d, want %d", pres.LastLogTick, applied-1)
	}
	if !ref.matches(r.Store()) {
		t.Fatal("rolled-forward state diverges from reference")
	}
	want := append([]byte(nil), r.Store().Slab()...)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// The heal must have made the directory self-sufficient.
	r2, _, err := RecoverFrom(Options{Table: table, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.NextTick() != total {
		t.Fatalf("healed log recovers to tick %d, want %d", r2.NextTick(), total)
	}
	if !bytes.Equal(r2.Store().Slab(), want) {
		t.Fatal("healed-log recovery diverges from the rolled-forward recovery")
	}
}
