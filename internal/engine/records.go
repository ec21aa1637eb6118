package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/recovery"
	"repro/internal/wal"
)

// Engine log records carry a one-byte kind tag, so update ticks, cluster
// messages and range installs mix freely in one log. Every kind is data:
// replay copies bytes and re-executes nothing. Kind 1 (an opaque action
// payload re-executed through a caller's function) is retired; a log that
// still holds one fails recovery with an error naming its tick.
//
// The engine logs a tick's updates as runs (wal.EncodeRuns) in the
// bitmap-word order its apply sorts them into, so a replay worker stores its
// own runs and jumps over the rest. The varint kinds 0 and 3 are what the
// cluster's inbox holds and what logs before the run kinds hold; a heal
// appends them to a run log, and replay reads both.
const (
	recUpdates     byte = 0 // payload: wal.EncodeUpdates batch, arrival order
	recInstall     byte = 2 // payload: u64 lo, u64 hi, raw object bytes (range.go)
	recMessage     byte = 3 // payload: wal.EncodeMessage cross-partition batch (envelope.go)
	recUpdateRuns  byte = 4 // payload: wal.EncodeRuns batch, word-ordered
	recMessageRuns byte = 5 // payload: wal.AppendMessageHeader, then a wal.EncodeRuns batch
)

// appendRunRecord appends the record body the engine logs for one bucketed
// batch — world input (origin < 0) or a message — and returns the buffer.
func appendRunRecord(buf []byte, origin int32, originTick uint64, bucket []wal.Update) []byte {
	if origin < 0 {
		return wal.EncodeRuns(append(buf, recUpdateRuns), bucket)
	}
	buf = wal.AppendMessageHeader(append(buf, recMessageRuns), uint32(origin), originTick)
	return wal.EncodeRuns(buf, bucket)
}

// recordBatch returns the update batch inside an update or message record
// of either encoding and whether it is runs. Other kinds are an error.
func recordBatch(body []byte, tick uint64) (batch []byte, runs bool, err error) {
	if len(body) == 0 {
		return nil, false, fmt.Errorf("engine: empty log record at tick %d", tick)
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case recUpdates, recUpdateRuns:
		return payload, kind == recUpdateRuns, nil
	case recMessage, recMessageRuns:
		if _, _, batch, err = wal.SplitMessage(payload); err != nil {
			return nil, false, fmt.Errorf("engine: tick %d: %w", tick, err)
		}
		return batch, kind == recMessageRuns, nil
	default:
		return nil, false, fmt.Errorf("engine: unknown log record kind %d at tick %d", kind, tick)
	}
}

// replayer applies logged records to one shard's object range [lo, hi) at
// recovery: the pipeline hands every record to every shard's worker, each
// on its own goroutine with its own replayer, so the decode scratch is per
// worker. Recovery marks everything dirty afterwards, so no checkpointer
// bookkeeping.
type replayer struct {
	e       *Engine
	lo, hi  int
	scratch []wal.Update
}

// replayers returns one replayer per shard range.
func (e *Engine) replayers(ranges []recovery.ShardRange) []*replayer {
	reps := make([]*replayer, len(ranges))
	for s, r := range ranges {
		reps[s] = &replayer{e: e, lo: r.Lo, hi: r.Hi}
	}
	return reps
}

// apply replays one record, keeping only the shard's objects, and returns
// the number of cells written (objects, for a range install). A run record's
// framing is checked whole before anything is stored, and a varint record
// is decoded whole first, so every worker refuses a bad record at the same
// place and none applies any of it.
func (r *replayer) apply(tick uint64, body []byte) (int64, error) {
	if len(body) > 0 && body[0] == recInstall {
		return r.e.replayInstall(body[1:], r.lo, r.hi)
	}
	batch, isRuns, err := recordBatch(body, tick)
	if err != nil {
		return 0, err
	}
	cpo := uint64(r.e.store.cellsPerObj)
	clo, chi := uint64(r.lo)*cpo, uint64(r.hi)*cpo
	slab := r.e.store.slab
	var n int64
	if !isRuns {
		if r.scratch, err = wal.DecodeUpdates(r.scratch[:0], batch); err != nil {
			return 0, fmt.Errorf("engine: tick %d: %w", tick, err)
		}
		for _, u := range r.scratch {
			if c := uint64(u.Cell); c >= clo && c < chi {
				binary.LittleEndian.PutUint32(slab[c*4:], u.Value)
				n++
			}
		}
		return n, nil
	}
	runs, err := wal.ParseRuns(batch)
	if err != nil {
		return 0, fmt.Errorf("engine: tick %d: %w", tick, err)
	}
	for base, ents, ok := runs.Next(); ok; base, ents, ok = runs.Next() {
		// The run's page holds cells [page, page+2^16).
		page := uint64(base)
		switch {
		case page >= chi || page+1<<16 <= clo: // none of them the shard's
		case page >= clo && page+1<<16 <= chi: // all of them
			for i := 0; i < len(ents); i += 6 {
				low, v := wal.RunEntry(ents, i)
				binary.LittleEndian.PutUint32(slab[(page|uint64(low))*4:], v)
			}
			n += int64(len(ents) / 6)
		default:
			for i := 0; i < len(ents); i += 6 {
				low, v := wal.RunEntry(ents, i)
				if c := page | uint64(low); c >= clo && c < chi {
					binary.LittleEndian.PutUint32(slab[c*4:], v)
					n++
				}
			}
		}
	}
	return n, nil
}
