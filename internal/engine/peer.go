package engine

import (
	"errors"
	"fmt"

	"repro/internal/recovery"
	"repro/internal/wal"
)

// Peer-RAM recovery: RecoverFromPeer is RecoverFrom with the restore side
// swapped — instead of choosing a local disk image, the sharded pipeline
// streams a checkpoint image out of a surviving peer's memory and replays
// the peer-held dirty-since-cut tick deltas ahead of the local WAL tail.
// The pipeline itself is unchanged (per-shard restore watermarks gating
// per-shard replay, see recovery.RecoverParallel); only the byte sources
// differ, which is what makes peer-RAM recovery byte-identical to the disk
// pipeline by construction.

// RecoverSource is a peer-held replica of this engine's durable state: a
// checkpoint image plus the tick-ordered log records accumulated since the
// image's cut. internal/peerram builds one from a surviving node's
// compressed in-memory replica.
type RecoverSource struct {
	// Image restores the slab in place of the local A/B disk backups.
	Image recovery.ImageSource
	// Prelude returns a fresh tick-ordered stream of the records since the
	// image's cut. It is called at least twice — once to feed the restore
	// pipeline and once to heal the local log — so each call must yield an
	// independent iteration over the same records.
	Prelude func() (recovery.RecordSource, error)
}

// RecoverFromPeer opens an engine in opts.Dir like RecoverFrom, but
// restores through src: the peer's image fills the slab (one shard range
// at a time, concurrently), the peer's delta records replay first, and the
// local WAL tail replays after them for any ticks the peer had not yet
// received — overlapped exactly like the disk pipeline. After the restore
// the local durable state is healed (see healFromPeer) so a later plain
// disk recovery of the same directory cannot silently resurrect a
// pre-crash world.
//
// Peer-RAM recovery writes checkpoints of the restored state, so opts must
// name a durable directory (not InMemory) and a checkpointing mode.
func RecoverFromPeer(opts Options, src RecoverSource) (*Engine, recovery.ParallelResult, error) {
	var zero recovery.ParallelResult
	if src.Image == nil || src.Prelude == nil {
		return nil, zero, errors.New("engine: RecoverFromPeer needs both an image and a prelude source")
	}
	if opts.InMemory {
		return nil, zero, errors.New("engine: peer-RAM recovery requires a durable dir (not InMemory)")
	}
	if opts.Mode == ModeNone {
		return nil, zero, errors.New("engine: peer-RAM recovery needs a checkpointing mode (ModeNone cannot persist the restored state)")
	}
	e, pres, err := open(opts, true, &src, nil)
	if err != nil {
		return nil, pres, err
	}
	if err := e.healFromPeer(&src, pres); err != nil {
		e.Close()
		return nil, pres, err
	}
	return e, pres, nil
}

// healFromPeer makes the local directory self-sufficient again after a peer
// restore. The restored world may be ahead of everything on local disk (the
// peer held ticks the local WAL lost, and both local images predate the
// crash), so without a heal a later disk-only recovery of this directory
// would come up behind the world it claims to be — silently.
//
// Two cases:
//
//  1. The peer's records overlap or abut the local WAL's end. Appending the
//     records the WAL is missing makes the log gapless through the restored
//     tick, and one Sync makes them durable — no image write on the
//     recovery path. The overlap also proves the WAL's final tick is not
//     torn (a crash can flush a range-install record without the update
//     batch that shares its tick): the peer's copy of that tick is complete
//     by the sender's commit gating, so a record-count match is proof, and
//     a count mismatch is healed by appending exactly the missing suffix.
//  2. The peer's image floor is past the local WAL's end (the WAL lost more
//     ticks than the peer retained records for), or the peer's stream
//     cannot vouch for the WAL's final tick. The gap is unfillable from
//     records, so the restored slab itself is persisted as a complete
//     bootstrap image — same protocol as a standby bootstrap — and disk
//     recovery restarts from that image.
func (e *Engine) healFromPeer(src *RecoverSource, pres recovery.ParallelResult) error {
	if e.tick == 0 {
		return nil // empty world: nothing restored, nothing to heal
	}
	floor := uint64(0) // first tick the peer image does not cover
	if pres.Restored {
		floor = pres.AsOfTick + 1
	}

	// Decide whether appending records can close the gap, and how many
	// records at the WAL's final tick are already present locally.
	canAppend := false
	skipAtLast := 0
	if !pres.SawLogTick {
		// Empty local WAL: gapless iff the peer's records start at tick 0.
		canAppend = floor == 0
	} else if floor <= pres.LastLogTick {
		// Overlap: count the peer's records at the WAL's final tick. Equal
		// counts mean the WAL is intact through that tick; a larger peer
		// count means the final tick is torn and the suffix must be
		// appended; a smaller count means the peer stream is behind the
		// local log inside a shared tick, which commit gating rules out —
		// treat it as unverifiable.
		rs, err := src.Prelude()
		if err != nil {
			return err
		}
		peerAtLast := 0
		covered := false
		for {
			tick, _, ok, err := rs.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if tick == pres.LastLogTick {
				peerAtLast++
				covered = true
			} else if tick > pres.LastLogTick {
				covered = true
			}
		}
		if covered && peerAtLast >= pres.LastTickRecords {
			canAppend = true
			skipAtLast = pres.LastTickRecords
		}
	}
	// floor == LastLogTick+1 (abutting, no shared tick to verify) and
	// floor > LastLogTick+1 (a hole) both fall through with canAppend
	// false: the peer cannot vouch for the WAL's final tick, or cannot
	// fill the hole at all.

	if !canAppend {
		return e.writeBootstrapImage(e.tick - 1)
	}

	rs, err := src.Prelude()
	if err != nil {
		return err
	}
	return healLog(e.log, rs, 0, pres, skipAtLast)
}

// healLog appends to log, then syncs, every record of src the log is
// missing, so the directory recovers to the same tick from local state
// alone. src carries each tick's records in log order; the skip rules
// mirror the recovery pipeline's: records below floor (covered by the
// restored image), whole ticks the log already ran, and the first skip
// records of the log's final tick — the ones a torn tick did get down —
// are passed over, so a torn tick is completed record-by-record.
func healLog(log *wal.Log, src recovery.RecordSource, floor uint64, pres recovery.ParallelResult, skip int) error {
	healed := false
	for {
		tick, payload, ok, err := src.Next()
		if err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
		if !ok {
			break
		}
		if tick < floor {
			continue
		}
		if pres.SawLogTick {
			if tick < pres.LastLogTick {
				continue // already in the local log
			}
			if tick == pres.LastLogTick && skip > 0 {
				skip--
				continue // local copy intact; skip the duplicate
			}
		}
		if err := log.Append(tick, payload); err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
		healed = true
	}
	if healed {
		if err := log.Sync(); err != nil {
			return fmt.Errorf("engine: log heal: %w", err)
		}
	}
	return nil
}
