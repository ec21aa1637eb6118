package peerram

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/recovery"
)

// RestoreSource serves one crashed owner's replica out of a holder's store
// as the two halves engine.RecoverFromPeer consumes: a recovery.ImageSource
// (the compressed checkpoint image, inflated once and then read per shard
// range) and, via Records, a recovery.RecordSource over the delta tail. All
// serving goes through the store's liveness accounting, so a holder that
// dies mid-restore — really or through the chaos hook — surfaces as
// ErrReplicaGone on the next read instead of handing out stale bytes.
type RestoreSource struct {
	store *Store
	owner int
	rep   replica // consistent copy taken at build time

	once   sync.Once
	raw    []byte // inflated image
	rawErr error
}

// NewRestoreSource snapshots owner's replica in store and wraps it for the
// restore pipeline. It fails with ErrNoReplica when the store holds no
// servable replica (none was ever shipped, or the holder is dead).
func NewRestoreSource(store *Store, owner int) (*RestoreSource, error) {
	rep, ok := store.snapshot(owner)
	if !ok {
		return nil, ErrNoReplica
	}
	return &RestoreSource{store: store, owner: owner, rep: rep}, nil
}

// Info identifies the image: its checkpoint epoch and the first tick it
// does not cover.
func (s *RestoreSource) Info() (epoch, nextTick uint64, err error) {
	if err := s.store.spend(s.owner, 0); err != nil {
		return 0, 0, err
	}
	return s.rep.epoch, s.rep.nextTick, nil
}

// materialize inflates the compressed image exactly once; every shard's
// ReadRange then copies out of the shared buffer.
func (s *RestoreSource) materialize() error {
	s.once.Do(func() {
		s.raw, s.rawErr = inflate(s.rep.image, s.rep.rawLen)
	})
	return s.rawErr
}

// ReadRange fills dst with the image bytes of objects [lo, hi). Safe for
// concurrent calls over disjoint ranges (the restore pipeline's contract).
func (s *RestoreSource) ReadRange(lo, hi int, dst []byte) error {
	if hi <= lo {
		return nil
	}
	if err := s.store.spend(s.owner, int64(len(dst))); err != nil {
		return err
	}
	if err := s.materialize(); err != nil {
		return err
	}
	objSize := len(dst) / (hi - lo)
	if hi*objSize > len(s.raw) {
		return fmt.Errorf("peerram: range [%d,%d)×%dB beyond %dB image", lo, hi, objSize, len(s.raw))
	}
	copy(dst, s.raw[lo*objSize:hi*objSize])
	return nil
}

// Records returns a fresh tick-ordered iteration over the replica's delta
// records. Each call restarts from the first bundle, so the restore
// pipeline and the WAL heal can each take their own pass.
func (s *RestoreSource) Records() (recovery.RecordSource, error) {
	if err := s.store.spend(s.owner, 0); err != nil {
		return nil, err
	}
	return &recordIter{src: s}, nil
}

// recordIter walks the delta bundles, inflating each into a fresh buffer
// (fanned-out payloads must outlive the iterator) and splitting it into the
// u32-length-prefixed records the sender packed.
type recordIter struct {
	src  *RestoreSource
	next int    // next bundle index
	buf  []byte // current inflated bundle
	off  int
	tick uint64
}

// Next returns the next delta record in tick order.
func (it *recordIter) Next() (tick uint64, payload []byte, ok bool, err error) {
	for it.off >= len(it.buf) {
		if it.next >= len(it.src.rep.deltas) {
			return 0, nil, false, nil
		}
		d := it.src.rep.deltas[it.next]
		it.next++
		if err := it.src.store.spend(it.src.owner, int64(d.rawLen)); err != nil {
			return 0, nil, false, err
		}
		raw, err := inflate(d.comp, d.rawLen)
		if err != nil {
			return 0, nil, false, err
		}
		it.buf, it.off, it.tick = raw, 0, d.tick
	}
	if it.off+4 > len(it.buf) {
		return 0, nil, false, fmt.Errorf("peerram: truncated bundle at tick %d", it.tick)
	}
	n := int(binary.LittleEndian.Uint32(it.buf[it.off:]))
	it.off += 4
	if it.off+n > len(it.buf) {
		return 0, nil, false, fmt.Errorf("peerram: truncated record at tick %d", it.tick)
	}
	payload = it.buf[it.off : it.off+n]
	it.off += n
	return it.tick, payload, true, nil
}
