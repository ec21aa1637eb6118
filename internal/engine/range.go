package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Object-range handoff: the engine-side hooks of the cluster subsystem's
// live partition migration (internal/cluster). Moving a sub-range of the
// object space from one node to another is a cut at a tick boundary: copy
// the range out of the source (SnapshotRange) and land it on the target as
// a single InstallRange — the range bytes, logged as one durable WAL record
// so the target is crash-recoverable from the moment it owns the range.

// recInstall payload layout: u64 lo, u64 hi, then (hi-lo)*objSize raw
// object bytes (see records.go for the record kind registry).
const installHdrLen = 16

// SnapshotRange returns a copy of the slab bytes backing objects [lo, hi),
// consistent as of the last applied tick, plus the tick the next record
// will carry (the first tick the snapshot does NOT cover): the migration
// cut's copy. Safe to call concurrently with the tick loop (serializes on
// the tick mutex).
func (e *Engine) SnapshotRange(lo, hi int) (nextTick uint64, data []byte, err error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if e.closed {
		return 0, nil, errors.New("engine: closed")
	}
	if lo < 0 || hi > e.store.NumObjects() || lo >= hi {
		return 0, nil, fmt.Errorf("engine: snapshot range [%d,%d) outside [0,%d)", lo, hi, e.store.NumObjects())
	}
	return e.tick, append([]byte(nil), e.store.SlabRange(lo, hi)...), nil
}

// InstallRange overwrites objects [lo, hi) with data (their bytes as of the
// last applied tick) and logs the install as one WAL record, synced durable
// before the slab changes. It is the migration cutover hook: called at a
// tick boundary on the node acquiring the range, it makes the node's own
// recovery (image + own WAL) reproduce the range without any history from
// the previous owner.
//
// The record is logged at the *next* tick (the first tick that will see
// the installed bytes), not the last applied one. That anchors replay
// correctly against checkpoints on both sides of the install: an image
// labeled as-of an earlier tick replays from below the record and applies
// it; any flush that could produce an image labeled at or above the
// record's tick starts after the install and therefore contains its bytes.
// Logging at the last applied tick would race a flush already in flight
// for that tick — the image would carry the pre-install bytes yet replay
// (and pruning) would treat the record as covered. Recovery in turn never
// counts an install record as evidence its tick ran (see open): a crash
// between the install and the next tick recovers to the install's tick,
// not past it.
//
// At least one tick must have been applied (migrations cut over between
// ticks of a running world).
func (e *Engine) InstallRange(lo, hi int, data []byte) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if lo < 0 || hi > e.store.NumObjects() || lo >= hi {
		return fmt.Errorf("engine: install range [%d,%d) outside [0,%d)", lo, hi, e.store.NumObjects())
	}
	if want := (hi - lo) * e.store.ObjSize(); len(data) != want {
		return fmt.Errorf("engine: install range [%d,%d) wants %d bytes, got %d", lo, hi, want, len(data))
	}
	if e.tick == 0 {
		return errors.New("engine: install range before any tick was applied")
	}
	if e.log != nil {
		e.encBuf = appendInstallRecord(e.encBuf[:0], lo, hi, data)
	}
	return e.install(false, e.encBuf, lo, hi, data)
}

// install is the one path a range install takes into the engine, on the
// owner (InstallRange) and on its standby (ingestInstall). It is
// deliberately not a tick and does not go through commit: the record is
// logged at the next tick without advancing it, and it is always synced —
// the cluster's routing cutover happens right after the call, and a crash
// must never leave the new owner without the range it now owns. body is the
// encoded recInstall record (read only on a durable engine).
func (e *Engine) install(standby bool, body []byte, lo, hi int, data []byte) error {
	if err := e.guard(standby); err != nil {
		return err
	}
	if e.log != nil {
		if err := e.log.Append(e.tick, body); err != nil {
			return err
		}
		if err := e.log.Sync(); err != nil {
			return err
		}
	}
	// One onWord per bitmap word before its objects' bytes change, so an
	// in-flight copy-on-update flush still sees consistent pre-images.
	sz := e.store.ObjSize()
	for at := lo; at < hi; {
		end := min((at|63)+1, hi)
		e.cp.onWord(int32(at>>6), (^uint64(0)>>uint(64-(end-at)))<<uint(at&63))
		copy(e.store.SlabRange(at, end), data[(at-lo)*sz:(end-lo)*sz])
		at = end
	}
	if e.tick > 0 {
		e.notifySubs(e.tick - 1)
	}
	return nil
}

// appendInstallRecord encodes a recInstall record body (kind tag included)
// into buf: the exact bytes InstallRange logs and a shipper streams.
func appendInstallRecord(buf []byte, lo, hi int, data []byte) []byte {
	buf = append(buf, recInstall)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(hi))
	return append(buf, data...)
}

// decodeInstall splits a recInstall payload into its range and bytes.
func decodeInstall(payload []byte, objSize int) (lo, hi int, data []byte, err error) {
	if len(payload) < installHdrLen {
		return 0, 0, nil, fmt.Errorf("engine: install record truncated (%d bytes)", len(payload))
	}
	lo = int(binary.LittleEndian.Uint64(payload[0:]))
	hi = int(binary.LittleEndian.Uint64(payload[8:]))
	data = payload[installHdrLen:]
	// Divide rather than multiply: (hi-lo)*objSize wraps for a hostile hi
	// (2^55 objects of 512 bytes is 2^64), and a wrapped product of 0 would
	// pass for an empty payload.
	if lo < 0 || hi < lo || len(data)%objSize != 0 || hi-lo != len(data)/objSize {
		return 0, 0, nil, fmt.Errorf("engine: install record range [%d,%d) does not match %d payload bytes",
			lo, hi, len(data))
	}
	return lo, hi, data, nil
}

// replayInstall applies a recInstall record restricted to objects [lo, hi):
// the shard-filter used by both recovery paths. It returns the number of
// objects installed.
func (e *Engine) replayInstall(payload []byte, lo, hi int) (int64, error) {
	rlo, rhi, data, err := decodeInstall(payload, e.store.ObjSize())
	if err != nil {
		return 0, err
	}
	if rhi > e.store.NumObjects() {
		return 0, fmt.Errorf("engine: install record range [%d,%d) outside [0,%d)", rlo, rhi, e.store.NumObjects())
	}
	if rhi <= lo || rlo >= hi {
		return 0, nil // no overlap with this shard
	}
	if rlo < lo {
		data = data[(lo-rlo)*e.store.ObjSize():]
		rlo = lo
	}
	if rhi > hi {
		rhi = hi
	}
	copy(e.store.SlabRange(rlo, rhi), data)
	return int64(rhi - rlo), nil
}

// ingestInstall applies a replicated install record on a standby. The
// primary logs installs at its next tick, so the record arrives with tick
// equal to the standby's expected next tick (IngestReplicated checked) but —
// like on the primary — does not advance it: the tick's regular record
// follows. It is logged to the standby's own WAL and applied through the
// checkpointer exactly like InstallRange (see install).
func (e *Engine) ingestInstall(tick uint64, body []byte) error {
	lo, hi, data, err := decodeInstall(body[1:], e.store.ObjSize())
	if err != nil {
		return fmt.Errorf("engine: replicated install at tick %d: %w", tick, err)
	}
	if hi > e.store.NumObjects() {
		return fmt.Errorf("engine: replicated install range [%d,%d) outside [0,%d)", lo, hi, e.store.NumObjects())
	}
	return e.install(true, body, lo, hi, data)
}
