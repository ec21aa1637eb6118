package main

import (
	"bytes"
	"fmt"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// oracle is the serial reference every workload is checked against: one
// in-memory engine with no checkpointing and one shard, fed the same tick
// batches in lock-step, always outside the timed sections. A workload is
// correct when every batch its gateway built equals the generated tick and
// every recovered world is byte-identical to the reference slab.
type oracle struct {
	ref *engine.Engine
	// dropTick, when not negative, makes the reference lose the last update
	// of that tick's batch: the fault a test injects to show the oracle is
	// live. The last update of a tick is the final write to its cell in that
	// tick, so dropping it from the last tick applied always changes the slab.
	dropTick int
	// mismatch describes the first disagreement; empty while all agree.
	mismatch string
}

func newOracle(table gamestate.Table, dropTick int) (*oracle, error) {
	ref, err := engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, Shards: 1, InMemory: true})
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return &oracle{ref: ref, dropTick: dropTick}, nil
}

func (o *oracle) fail(format string, args ...any) {
	if o.mismatch == "" {
		o.mismatch = fmt.Sprintf(format, args...)
	}
}

// apply feeds tick t's canonical batch to the reference.
func (o *oracle) apply(t int, batch []wal.Update) error {
	if int(o.ref.NextTick()) != t {
		return fmt.Errorf("reference engine is at tick %d, fed tick %d", o.ref.NextTick(), t)
	}
	if t == o.dropTick && len(batch) > 0 {
		batch = batch[:len(batch)-1]
	}
	return o.ref.ApplyTick(batch)
}

// checkBatch compares the batch a gateway built for tick t with the
// canonical order of the generated tick.
func (o *oracle) checkBatch(t int, got, want []wal.Update) {
	if t == o.dropTick && len(want) > 0 {
		want = want[:len(want)-1]
	}
	if len(got) != len(want) {
		o.fail("tick %d: gateway batch has %d updates, generated tick has %d", t, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			o.fail("tick %d: gateway batch differs from the generated tick at update %d", t, i)
			return
		}
	}
}

// checkState compares a world's state with the reference slab.
func (o *oracle) checkState(what string, got []byte) {
	if want := o.ref.Store().Slab(); !bytes.Equal(got, want) {
		o.fail("%s: state differs from the serial reference at tick %d", what, o.ref.NextTick())
	}
}

func (o *oracle) close() { o.ref.Close() }
