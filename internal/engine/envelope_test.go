package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// runRecord is env's record body in the run kinds the engine logs.
func runRecord(env Envelope) []byte {
	if env.Origin < 0 {
		return wal.EncodeRuns([]byte{recUpdateRuns}, env.Updates)
	}
	return wal.EncodeRuns(wal.AppendMessageHeader([]byte{recMessageRuns}, uint32(env.Origin), env.OriginTick), env.Updates)
}

// decodeEnvelopeRecord parses an update or message record body (an update
// record, and a logged tick's head, decode with Origin -1: the world's input
// carries no origin stamp; its tick is the record's own tick). Other record
// kinds are an error.
func decodeEnvelopeRecord(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, errors.New("engine: empty envelope record")
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case recUpdateRuns:
		upds, err := wal.DecodeRuns(nil, payload)
		return Envelope{Origin: -1, Updates: upds}, err
	case recMessageRuns:
		origin, originTick, batch, err := wal.SplitMessage(payload)
		if err != nil {
			return Envelope{}, err
		}
		upds, err := wal.DecodeRuns(nil, batch)
		return Envelope{Origin: int32(origin), OriginTick: originTick, Updates: upds}, err
	default:
		return Envelope{}, fmt.Errorf("engine: record kind %d is not an envelope", kind)
	}
}

// applyLogged logs envs at the engine's next tick and applies them, as a
// logged cluster world's dispatch and node worker do.
func applyLogged(e *Engine, envs []Envelope) error {
	if err := e.LogTickEnvelopes(e.NextTick(), envs); err != nil {
		return err
	}
	return e.ApplyTickEnvelopes(envs)
}

func TestEnvelopeRecordRoundtrip(t *testing.T) {
	cases := []Envelope{
		{Origin: -1, Updates: []wal.Update{{Cell: 3, Value: 7}, {Cell: 100, Value: 9}}},
		{Origin: -1, Updates: nil},
		{Origin: 2, OriginTick: 41, Updates: []wal.Update{{Cell: 12, Value: 0xdead}}},
		{Origin: 0, OriginTick: 0, Updates: nil},
	}
	for i, env := range cases {
		got, err := decodeEnvelopeRecord(runRecord(env))
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
	if _, err := decodeEnvelopeRecord([]byte{recInstall, 0, 0}); err == nil {
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
		if err := applyLogged(e, envs); err != nil {
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

// TestLoggedTicks: LogTickEnvelopes writes each tick's head first with the
// tick's record count and the world input decoding as origin -1; LoggedEnd
// finds the last whole tick of a log whose final tick a crash tore after its
// head, stepping over a degrade anchor's install record in front of a head,
// and, after CutLog drops the torn tick, recovery reaches exactly the ticks
// before it and the log takes that tick again. Misordered envelopes are
// refused.
func TestLoggedTicks(t *testing.T) {
	table := testTable()
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	e, err := Open(Options{Table: table, Dir: dir, Mode: ModeNone, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	cells := table.NumObjects() * table.CellsPerObject()
	const total = 8
	ticks := make([][]Envelope, total)
	ref := newReference(table)
	var anchor []byte // the state after tick 2, as the degrade rule logs it at tick 3
	for tick := range ticks {
		ticks[tick] = []Envelope{
			{Origin: -1, Updates: randomBatch(rng, cells, 30)},
			{Origin: 0, OriginTick: uint64(tick), Updates: randomBatch(rng, cells, 2)},
			{Origin: 1, OriginTick: uint64(tick), Updates: randomBatch(rng, cells, 3)},
		}
		if err := applyLogged(e, ticks[tick]); err != nil {
			t.Fatal(err)
		}
		if tick < total-1 {
			for _, env := range ticks[tick] {
				ref.apply(env.Updates)
			}
		}
		if tick == 2 {
			n := e.Store().NumObjects()
			anchor = appendInstallRecord(nil, 0, n, bytes.Clone(e.Store().SlabRange(0, n)))
		}
	}
	for _, bad := range [][]Envelope{nil, ticks[0][1:], {ticks[0][0], ticks[0][0]}} {
		if err := e.LogTickEnvelopes(total, bad); err == nil {
			t.Errorf("logged a tick of %d envelopes without one world input first", len(bad))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Read the log back, then tear the last tick after its head.
	walDir := filepath.Join(dir, "wal")
	r, err := wal.NewReader(walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	var keptTicks []uint64
	for k := 0; ; k++ {
		tick, body, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := tickRecords(body); ok != (k%3 == 0) || ok && n != 3 {
			t.Fatalf("record %d: tickRecords = %d, %v", k, n, ok)
		}
		if env, err := decodeEnvelopeRecord(body); err != nil || (env.Origin < 0) != (k%3 == 0) {
			t.Fatalf("record %d decodes with origin %d (%v)", k, env.Origin, err)
		}
		if tick < total-1 || k%3 == 0 {
			kept, keptTicks = append(kept, bytes.Clone(body)), append(keptTicks, tick)
		}
	}
	r.Close()
	if end, err := LoggedEnd(dir, 0); err != nil || end != total {
		t.Fatalf("whole log ends at %d (%v), want %d", end, err, total)
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range kept {
		if keptTicks[i] == 3 && i%3 == 0 {
			if err := log.Append(3, anchor); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Append(keptTicks[i], body); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for from, want := range map[uint64]uint64{0: total - 1, 3: total - 1, total + 2: total + 2} {
		if end, err := LoggedEnd(dir, from); err != nil || end != want {
			t.Errorf("torn log read from %d ends at %d (%v), want %d", from, end, err, want)
		}
	}
	if err := CutLog(dir, total-1); err != nil {
		t.Fatal(err)
	}
	if end, err := LoggedEnd(dir, 0); err != nil || end != total-1 {
		t.Fatalf("cut log ends at %d (%v), want %d", end, err, total-1)
	}
	r2, err := Open(Options{Table: table, Dir: dir, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	if r2.NextTick() != total-1 || !ref.matches(r2.Store()) {
		t.Fatalf("recovered to tick %d, want %d with the ticks before it", r2.NextTick(), total-1)
	}
	if err := applyLogged(r2, ticks[total-1]); err != nil {
		t.Fatalf("the cut log does not take the torn tick again: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	// A log whose last record is an anchor, logged at the next tick before
	// that tick's head, ends where its last whole tick does.
	log, err = wal.Open(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(total, anchor); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{5, total} {
		if end, err := LoggedEnd(dir, from); err != nil || end != total {
			t.Errorf("log ending in an anchor, read from %d, ends at %d (%v), want %d", from, end, err, total)
		}
	}
}
