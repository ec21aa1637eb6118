// Package engine is the real implementation of the two recovery methods the
// paper validates in Section 6 — Naive-Snapshot and Copy-on-Update — built
// the way the paper's C++ validation build is: a mutator applying tick
// updates to an in-memory slab, an asynchronous writer goroutine flushing
// checkpoints to a double backup on disk, dirty bits, striped locks, and a
// logical log for replay. Unlike internal/checkpoint (the cost-model
// simulator), everything here actually copies memory and actually writes.
package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/disk"
	"repro/internal/gamestate"
)

// Store holds the game state: NumObjects fixed-size atomic objects in one
// contiguous slab, addressed either by 4-byte cell or by object.
type Store struct {
	table       gamestate.Table
	slab        []byte
	cellsPerObj uint32
}

// NewStore allocates a zeroed store for the table geometry. The engine
// requires 4-byte cells (updates carry 4-byte values, as in the prototype
// game whose attributes are float32). The slab comes from disk.MapZeroed:
// zeroed by the kernel as it is first written, never by a memclr, so a
// recovery restores straight into untouched memory. The engine that owns
// the store releases it on Close.
func NewStore(table gamestate.Table) (*Store, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	if table.CellSize != 4 {
		return nil, fmt.Errorf("engine: cell size must be 4 bytes, got %d", table.CellSize)
	}
	slab, err := disk.MapZeroed(int(table.StateBytes()))
	if err != nil {
		return nil, fmt.Errorf("engine: map %d-byte slab: %w", table.StateBytes(), err)
	}
	return &Store{
		table:       table,
		slab:        slab,
		cellsPerObj: uint32(table.CellsPerObject()),
	}, nil
}

// release unmaps the slab and leaves it nil, so a stale accessor panics on
// an empty slice instead of faulting on unmapped memory. Every goroutine
// that reads the slab must have been joined.
func (s *Store) release() {
	disk.Unmap(s.slab) //nolint:errcheck // a failed munmap only leaks the range
	s.slab = nil
}

// Table returns the store geometry.
func (s *Store) Table() gamestate.Table { return s.table }

// Slab exposes the raw state for checkpointing and recovery. Callers must
// respect the engine's locking protocol. The slice is invalid once the
// owning engine is closed: Close unmaps it, and Slab returns nil from then
// on — copy the bytes out first to keep them.
func (s *Store) Slab() []byte { return s.slab }

// NumObjects returns the number of atomic objects.
func (s *Store) NumObjects() int { return s.table.NumObjects() }

// ObjSize returns the atomic object size in bytes.
func (s *Store) ObjSize() int { return s.table.ObjSize }

// ObjectOf returns the atomic object containing a cell.
func (s *Store) ObjectOf(cell uint32) int32 { return int32(cell / s.cellsPerObj) }

// SetCell stores a 4-byte value into a cell.
func (s *Store) SetCell(cell uint32, value uint32) {
	binary.LittleEndian.PutUint32(s.slab[cell*4:], value)
}

// Cell loads a cell's 4-byte value.
func (s *Store) Cell(cell uint32) uint32 {
	return binary.LittleEndian.Uint32(s.slab[cell*4:])
}

// ObjectBytes returns the slab slice backing one atomic object.
func (s *Store) ObjectBytes(obj int) []byte {
	sz := s.table.ObjSize
	return s.slab[obj*sz : (obj+1)*sz]
}

// SlabRange returns the slab bytes backing objects [lo, hi) — the unit a
// shard's checkpoint flusher stages and writes.
func (s *Store) SlabRange(lo, hi int) []byte {
	sz := s.table.ObjSize
	return s.slab[lo*sz : hi*sz]
}
