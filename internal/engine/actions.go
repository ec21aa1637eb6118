package engine

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// The paper logs *user actions* rather than physical updates: "we log all
// user actions at each tick and replay the ticks to recover" (Section 3.1).
// For a deterministic simulation loop this shrinks the log by orders of
// magnitude — one movement command replaces dozens of per-tick position
// updates. ApplyActionTick provides that mode: the caller logs an opaque
// action payload and applies its effects through a TickWriter; recovery
// re-executes the payload via Options.ReplayAction.
//
// Engine log records carry a one-byte kind tag so update ticks and action
// ticks can be mixed freely in one log.

const (
	recUpdates byte = 0 // payload: wal.EncodeUpdates batch
	recAction  byte = 1 // payload: opaque application bytes
	recInstall byte = 2 // payload: u64 lo, u64 hi, raw object bytes (range.go)
	recMessage byte = 3 // payload: wal.EncodeMessage cross-partition batch (envelope.go)
)

// TickWriter applies a tick's effects to the store through the
// checkpointer, so copy-on-update bookkeeping sees every write. It is valid
// only during the ApplyActionTick or ReplayAction call that provided it.
type TickWriter struct {
	e       *Engine
	applied int64
	// lo, hi restrict writes to the object range [lo, hi) when hi > 0: the
	// sharded recovery pipeline re-executes one action per shard and each
	// execution keeps only the writes its shard owns.
	lo, hi int
}

// Set writes a 4-byte value into a cell. During sharded replay, writes
// outside the writer's shard are dropped (another shard's execution of the
// same action applies them).
func (w *TickWriter) Set(cell uint32, value uint32) {
	obj := w.e.store.ObjectOf(cell)
	if w.hi > 0 && (int(obj) < w.lo || int(obj) >= w.hi) {
		return
	}
	w.e.cp.onWord(obj>>6, 1<<(uint(obj)&63))
	w.e.store.SetCell(cell, value)
	w.applied++
}

// Cell reads a cell (actions often read-modify-write). During sharded
// replay, read only cells this writer Owns — other shards' cells are being
// replayed concurrently.
func (w *TickWriter) Cell(cell uint32) uint32 { return w.e.store.Cell(cell) }

// Owns reports whether this writer applies writes to cell: always true
// during normal ticks and serial replay, and true exactly for the shard's
// object range during sharded replay. Replay functions skip cells they do
// not own — that skips redundant work and keeps sharded replay free of
// cross-shard reads.
func (w *TickWriter) Owns(cell uint32) bool {
	if w.hi <= 0 {
		return true
	}
	obj := int(w.e.store.ObjectOf(cell))
	return obj >= w.lo && obj < w.hi
}

// ReplayActionFunc re-executes a logged action payload during recovery. It
// must deterministically reproduce the writes the original ApplyActionTick
// performed. Under RecoverFrom's sharded replay it runs once per shard
// (concurrently, with writes filtered to the shard's range), so it must
// also be safe to call from multiple goroutines and derive every write from
// the payload and cells of the shard being written — gate per-cell work on
// TickWriter.Owns to skip (and avoid reading) other shards' cells. See
// RecoverFrom.
type ReplayActionFunc func(tick uint64, payload []byte, w *TickWriter) error

// ApplyActionTick logs one tick as an opaque action payload and applies its
// effects via apply. The engine must have been opened with a ReplayAction
// function, or recovery would be unable to interpret the record.
func (e *Engine) ApplyActionTick(payload []byte, apply func(w *TickWriter) error) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if e.log != nil && e.opts.ReplayAction == nil {
		return errors.New("engine: ApplyActionTick requires Options.ReplayAction")
	}
	w := TickWriter{e: e}
	return e.commit(false, 1,
		func(int) []byte {
			e.encBuf = append(append(e.encBuf[:0], recAction), payload...)
			return e.encBuf
		},
		func() (int64, error) {
			if err := apply(&w); err != nil {
				return 0, fmt.Errorf("engine: action apply: %w", err)
			}
			return w.applied, nil
		})
}

// updateBatch reports whether a logged record is a plain update batch — a
// tick's own updates or a cross-partition message, whose origin header is
// provenance for the cluster's recovery and not replay input — and returns
// its wal.EncodeUpdates bytes. Recovery decodes those records once, straight
// into per-shard buckets (wal.SplitUpdates), and applies each bucket with
// replayUpdates; every other record goes whole to replayRecordRange. A
// message too short for its header is left to replayRecordRange to refuse.
func updateBatch(body []byte) ([]byte, bool) {
	switch {
	case len(body) > 0 && body[0] == recUpdates:
		return body[1:], true
	case len(body) > wal.MessageHeaderLen && body[0] == recMessage:
		return body[1+wal.MessageHeaderLen:], true
	}
	return nil, false
}

// replayUpdates writes one bucket of a decoded update batch straight into
// the slab (recovery marks everything dirty afterwards, so no checkpointer
// bookkeeping). The bucket holds only cells inside the table, and under the
// parallel pipeline only cells of the calling worker's shard.
func (e *Engine) replayUpdates(upds []wal.Update) {
	for _, u := range upds {
		e.store.SetCell(u.Cell, u.Value)
	}
}

// replayRecordRange re-executes one logged record that is not an update
// batch, keeping only effects on objects in [lo, hi) — the whole object
// space under serial recovery, one shard's range under the parallel
// pipeline, which hands such a record to every shard's replay worker.
// Action records are re-executed with a range-filtered TickWriter, installs
// copied by range. It returns the number of cell writes applied, so the
// per-shard counts sum to the serial path's total.
func (e *Engine) replayRecordRange(lo, hi int, tick uint64, body []byte) (int64, error) {
	if len(body) == 0 {
		return 0, fmt.Errorf("engine: empty log record at tick %d", tick)
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case recAction:
		if e.opts.ReplayAction == nil {
			return 0, fmt.Errorf("engine: log holds action records but no ReplayAction was provided")
		}
		w := &TickWriter{e: e, lo: lo, hi: hi}
		if err := e.opts.ReplayAction(tick, payload, w); err != nil {
			return w.applied, err
		}
		return w.applied, nil
	case recInstall:
		return e.replayInstall(payload, lo, hi)
	case recMessage:
		return 0, fmt.Errorf("engine: message payload %d bytes at tick %d, want >= %d",
			len(payload), tick, wal.MessageHeaderLen)
	default:
		return 0, fmt.Errorf("engine: unknown log record kind %d at tick %d", kind, tick)
	}
}
