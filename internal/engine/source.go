package engine

import (
	"fmt"

	"repro/internal/recovery"
)

// Recovery with an outside record source: RecoverWith is RecoverFrom with a
// second record source merged into replay. The source is the cluster's
// logged-message store (internal/cluster), which supplies a node's inbox,
// whose records roll the node forward past where its own WAL ends. The
// pipeline itself is unchanged (each shard restoring and replaying its own
// range, see recovery.RecoverParallel) and only the byte sources
// differ, which is what makes it byte-identical to the disk pipeline by
// construction.

// RecoverWith opens an engine in opts.Dir like RecoverFrom, and replays the
// records yields merged with the local WAL. records returns a fresh
// tick-ordered stream of records (see recovery.ParallelOptions.Extra). It
// must carry each tick's records in the order the engine logs them; a crash
// may have torn its final tick, and where the WAL holds more records at a
// tick than the source, the WAL's copy replays. It is called twice — once to
// feed the pipeline and once to heal the local log (see heal), so the
// directory recovers to the same tick from local state alone — and each call
// must yield an independent iteration over the same records. A nil records
// is RecoverFrom.
func RecoverWith(opts Options, records func() (recovery.RecordSource, error)) (*Engine, recovery.ParallelResult, error) {
	return open(opts, records)
}

// heal makes the local directory self-sufficient again after a recovery
// that merged records: it appends to the log, then syncs, what the log
// lacks at its end — whole ticks past its last tick, and the missing suffix
// of a torn last tick. The recovered world may be ahead of everything the log
// holds, so without a heal a later disk-only recovery of this directory would
// come up behind the world it claims to be — silently. A crash tears a log
// only at its end; a hole inside it (which no crash makes) is not filled,
// and stays covered only while the source still carries those ticks.
func (e *Engine) heal(records func() (recovery.RecordSource, error), pres recovery.ParallelResult) error {
	if e.tick == 0 {
		return nil // empty world: nothing replayed, nothing to heal
	}
	rs, err := records()
	if err != nil {
		return fmt.Errorf("engine: log heal: %w", err)
	}
	defer closeSource(rs)
	floor := uint64(0) // first tick the restored image does not cover
	if pres.Restored {
		floor = pres.AsOfTick + 1
	}
	last, atLast := pres.LastLogTick, 0
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
		// Every record from here on is missing locally.
		if err := e.log.Append(tick, payload); err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
		healed = true
	}
	if !healed {
		return nil
	}
	if err := e.log.Sync(); err != nil {
		return fmt.Errorf("engine: log heal: %w", err)
	}
	return nil
}
