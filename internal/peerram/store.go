package peerram

import (
	"errors"
	"fmt"
	"sync"
)

// Typed failures of the peer-RAM rung; cluster.Recover's ladder falls back
// to the next recovery mode when it sees them.
var (
	// ErrNoReplica reports that no surviving holder has a usable replica of
	// the crashed partition (the holders died too, or none was ever
	// attached — a single-node cluster has no peers).
	ErrNoReplica = errors.New("peerram: no surviving replica")
	// ErrReplicaGone reports a replica that vanished mid-restore: the
	// holding peer died while streaming its image or deltas into the
	// recovering engine.
	ErrReplicaGone = errors.New("peerram: replica holder died mid-restore")
	// ErrRawLen reports a replica whose declared inflated size is one its
	// compressed bytes cannot produce: a corrupt or hostile frame at ingest,
	// a corrupt store entry at restore.
	ErrRawLen = errors.New("peerram: impossible declared raw length")
)

// deltaBundle is one complete tick's worth of log records, compressed.
// Bundling per tick is what makes the holder's tail trustworthy: a frame
// is CRC-framed all-or-nothing, so the replica never holds a torn tick —
// unlike a crashed node's own WAL, whose final tick can tear between the
// records that share it.
type deltaBundle struct {
	tick   uint64
	rawLen int
	comp   []byte
}

// replica is one owner's checkpoint image plus its dirty-since-cut tick
// deltas, all compressed, as held in one peer's RAM.
type replica struct {
	epoch     uint64
	nextTick  uint64 // first tick the image does not cover
	rawLen    int    // inflated image size (the owner's slab size)
	image     []byte // compressed slab
	haveImage bool
	deltas    []deltaBundle
	high      uint64 // highest delta tick; valid when len(deltas) > 0

	// dead marks the holding node as crashed: the replica's bytes are
	// conceptually gone with the node's RAM and must refuse to serve.
	dead bool

	// budget < 0 means unlimited; otherwise the chaos hook decrements it on
	// every byte served and the replica dies when it runs out — the
	// "holding peer crashes mid-restore" fault.
	budget   int64
	injected bool
}

// Store is one node's holder-side replica set: the compressed images and
// delta tails this node keeps in RAM on behalf of its K owners. All methods
// are safe for concurrent use (holder goroutines ingest while a recovery
// reads).
type Store struct {
	mu       sync.Mutex
	replicas map[int]*replica
}

// NewStore returns an empty replica store.
func NewStore() *Store {
	return &Store{replicas: make(map[int]*replica)}
}

func (st *Store) replicaFor(owner int) *replica {
	r := st.replicas[owner]
	if r == nil {
		r = &replica{budget: -1}
		st.replicas[owner] = r
	}
	return r
}

// PutImage installs a fresh checkpoint image for owner, dropping every
// delta the image supersedes, and returns the holder's new retention
// watermark (the first tick it still needs from the owner's log).
func (st *Store) PutImage(owner int, epoch, nextTick uint64, rawLen int, comp []byte) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.replicaFor(owner)
	if r.haveImage && nextTick < r.nextTick {
		return 0, fmt.Errorf("peerram: image for owner %d regresses to tick %d (have %d)", owner, nextTick, r.nextTick)
	}
	r.epoch, r.nextTick, r.rawLen, r.image, r.haveImage = epoch, nextTick, rawLen, comp, true
	keep := r.deltas[:0]
	for _, d := range r.deltas {
		if d.tick >= nextTick {
			keep = append(keep, d)
		}
	}
	r.deltas = keep
	return st.watermarkLocked(r), nil
}

// PutDelta appends one complete tick bundle to owner's delta tail and
// returns the new retention watermark. A bundle at or below the tail's high
// tick, or below the image floor, is a harmless re-send and is skipped; a
// gap above the tail is a protocol error (the restore would be holed).
func (st *Store) PutDelta(owner int, tick uint64, rawLen int, comp []byte) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.replicas[owner]
	if r == nil || !r.haveImage {
		return 0, fmt.Errorf("peerram: delta for owner %d before any image", owner)
	}
	expect := r.nextTick
	if len(r.deltas) > 0 {
		expect = r.high + 1
	}
	switch {
	case tick < expect: // stale re-send: already covered
	case tick == expect:
		r.deltas = append(r.deltas, deltaBundle{tick: tick, rawLen: rawLen, comp: comp})
		r.high = tick
	default:
		return 0, fmt.Errorf("peerram: delta gap for owner %d: got tick %d, want %d", owner, tick, expect)
	}
	return st.watermarkLocked(r), nil
}

// watermarkLocked is the first tick the holder still needs: everything
// below it is safe in this store's RAM.
func (st *Store) watermarkLocked(r *replica) uint64 {
	if len(r.deltas) > 0 {
		return r.high + 1
	}
	return r.nextTick
}

// MarkDead poisons every replica in the store: the holding node crashed,
// so its RAM — and the replicas in it — no longer exists.
func (st *Store) MarkDead() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range st.replicas {
		r.dead = true
	}
}

// FailAfter arms the chaos hook on owner's replica: after the replica has
// served budget more bytes, it dies as if the holding peer crashed
// mid-restore. Serving calls then return ErrReplicaGone (wrapped).
func (st *Store) FailAfter(owner int, budget int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.replicaFor(owner).budget = budget
}

// Injected reports whether owner's armed FailAfter fault actually fired.
func (st *Store) Injected(owner int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.replicas[owner]
	return r != nil && r.injected
}

// spend charges n served bytes against owner's replica, honoring the dead
// flag and the chaos budget.
func (st *Store) spend(owner int, n int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.replicas[owner]
	if r == nil {
		return ErrNoReplica
	}
	if r.dead {
		return ErrReplicaGone
	}
	if r.budget >= 0 {
		r.budget -= n
		if r.budget < 0 {
			r.dead, r.injected = true, true
			return fmt.Errorf("replica budget exhausted: %w", ErrReplicaGone)
		}
	}
	return nil
}

// snapshot returns owner's replica fields under the lock, or ok=false when
// the store holds nothing servable for owner.
func (st *Store) snapshot(owner int) (rep replica, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.replicas[owner]
	if r == nil || !r.haveImage || r.dead {
		return replica{}, false
	}
	cp := *r
	cp.deltas = append([]deltaBundle(nil), r.deltas...)
	return cp, true
}

// CompressedBytes is the store's replica memory footprint: the sum of all
// compressed image and delta bytes held for every owner. It is the
// clusterbench "RAM cost of peer-RAM recovery" metric.
func (st *Store) CompressedBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int64
	for _, r := range st.replicas {
		n += int64(len(r.image))
		for _, d := range r.deltas {
			n += int64(len(d.comp))
		}
	}
	return n
}

// Watermark returns the holder's current retention watermark for owner and
// whether a replica exists at all.
func (st *Store) Watermark(owner int) (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.replicas[owner]
	if r == nil || !r.haveImage {
		return 0, false
	}
	return st.watermarkLocked(r), true
}
