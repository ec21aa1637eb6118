package engine

import (
	"fmt"

	"repro/internal/wal"
)

// Engine log records carry a one-byte kind tag, so update ticks, cluster
// messages and range installs mix freely in one log. Every kind is data:
// replay copies bytes and re-executes nothing. Kind 1 (an opaque action
// payload re-executed through a caller's function) is retired; a log that
// still holds one fails recovery with an error naming its tick.
const (
	recUpdates byte = 0 // payload: wal.EncodeUpdates batch
	recInstall byte = 2 // payload: u64 lo, u64 hi, raw object bytes (range.go)
	recMessage byte = 3 // payload: wal.EncodeMessage cross-partition batch (envelope.go)
)

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
// bookkeeping). The bucket holds only cells of the calling worker's shard.
func (e *Engine) replayUpdates(upds []wal.Update) {
	for _, u := range upds {
		e.store.SetCell(u.Cell, u.Value)
	}
}

// replayRecordRange applies one logged record that is not an update batch —
// a range install, copied by range — keeping only objects in [lo, hi), the
// calling worker's shard: the pipeline hands such a record to every shard's
// replay worker. It returns the number of objects installed in the range.
func (e *Engine) replayRecordRange(lo, hi int, tick uint64, body []byte) (int64, error) {
	if len(body) == 0 {
		return 0, fmt.Errorf("engine: empty log record at tick %d", tick)
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case recInstall:
		return e.replayInstall(payload, lo, hi)
	case recMessage:
		return 0, fmt.Errorf("engine: message payload %d bytes at tick %d, want >= %d",
			len(payload), tick, wal.MessageHeaderLen)
	default:
		return 0, fmt.Errorf("engine: unknown log record kind %d at tick %d", kind, tick)
	}
}
