package engine

import (
	"errors"
	"fmt"

	"repro/internal/recovery"
)

// Recovery with an outside source: RecoverWith is RecoverFrom with a second
// record source merged into replay, and optionally the restore side swapped.
// Two sources exist. A surviving peer's RAM (internal/peerram) supplies a
// checkpoint image and the delta records since its cut; the cluster's
// logged-message store (internal/cluster) supplies a node's inbox, whose
// records roll the node forward past where its own WAL ends. Either way the
// pipeline itself is unchanged (per-shard restore watermarks gating
// per-shard replay, see recovery.RecoverParallel) and only the byte sources
// differ, which is what makes both byte-identical to the disk pipeline by
// construction.

// RecoverSource is durable state held outside the engine's directory.
type RecoverSource struct {
	// Image, when non-nil, restores the slab in place of the local A/B disk
	// backups. Nil restores from the local backups.
	Image recovery.ImageSource
	// Records returns a fresh tick-ordered stream of records; replay merges
	// it with the local WAL (see recovery.ParallelOptions.Extra). It must
	// carry each tick's records in the order the engine logs them; a crash may
	// have torn its final tick, and where the WAL holds more records at a tick
	// than the source, the WAL's copy replays. It is called twice — once to feed the pipeline
	// and once to heal the local log — so each call must yield an
	// independent iteration over the same records. Required with Image.
	Records func() (recovery.RecordSource, error)
}

// RecoverWith opens an engine in opts.Dir like RecoverFrom, restoring from
// src.Image when set and replaying src.Records merged with the local WAL.
// After the pipeline, the local durable state is healed (see heal), so the
// directory recovers to the same tick from local state alone. A zero src is
// RecoverFrom.
//
// A source image means this incarnation writes checkpoints of a restored
// state no local image holds, so opts must then name a durable directory
// (not InMemory) and a checkpointing mode.
func RecoverWith(opts Options, src RecoverSource) (*Engine, recovery.ParallelResult, error) {
	var zero recovery.ParallelResult
	if src.Image != nil {
		switch {
		case src.Records == nil:
			return nil, zero, errors.New("engine: a source image needs its records")
		case opts.InMemory:
			return nil, zero, errors.New("engine: recovery from a source image requires a durable dir (not InMemory)")
		case opts.Mode == ModeNone:
			return nil, zero, errors.New("engine: recovery from a source image needs a checkpointing mode (ModeNone cannot persist the restored state)")
		}
	}
	return open(opts, true, src)
}

// heal makes the local directory self-sufficient again after a recovery
// that merged src's records: it appends to the log, then syncs, what the log
// lacks at its end — whole ticks past its last tick, and the missing suffix
// of a torn last tick. The recovered world may be ahead of everything the log
// holds, so without a heal a later disk-only recovery of this directory would
// come up behind the world it claims to be — silently. A crash tears a log
// only at its end; a hole inside it (which no crash makes) is not filled,
// and stays covered only while the source still carries those ticks.
//
// Appending closes the gap only when the source vouches for the log's last
// tick: it holds at least the records the log holds there (the source's copy
// of a tick is complete, so a larger count means the log's copy is torn).
// With a local image that always holds — the source only extends the log.
// When the image came from the source, its floor may be past the log's end,
// or abut it with no shared tick to compare; then the gap cannot be filled
// from records, and the restored slab itself is persisted as a complete
// bootstrap image — same protocol as a standby bootstrap.
func (e *Engine) heal(src RecoverSource, pres recovery.ParallelResult) error {
	if e.tick == 0 {
		return nil // empty world: nothing replayed, nothing to heal
	}
	rs, err := src.Records()
	if err != nil {
		return fmt.Errorf("engine: log heal: %w", err)
	}
	defer closeSource(rs)
	floor := uint64(0) // first tick the restored image does not cover
	if pres.Restored {
		floor = pres.AsOfTick + 1
	}
	last, atLast := pres.LastLogTick, 0
	vouches := func() bool {
		if !pres.SawLogTick {
			return floor == 0
		}
		return floor <= last && atLast >= pres.LastTickRecords
	}
	healed := false
	for {
		tick, payload, ok, err := rs.Next()
		if err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
		if !ok {
			break
		}
		if tick < floor {
			continue // covered by the image
		}
		if pres.SawLogTick && tick <= last {
			if tick < last {
				continue // inside the log: a crash left it whole
			}
			if atLast++; atLast <= pres.LastTickRecords {
				continue // the log's own copy of this record
			}
		}
		// Every record from here on is missing locally, and whether the source
		// vouches for the log's last tick is settled.
		if !healed && src.Image != nil && !vouches() {
			break
		}
		if err := e.log.Append(tick, payload); err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
		healed = true
	}
	if healed {
		if err := e.log.Sync(); err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
		return nil
	}
	if src.Image != nil && !vouches() {
		return e.writeBootstrapImage(e.tick - 1)
	}
	return nil
}
