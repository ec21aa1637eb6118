package session

import "repro/internal/cluster"

// interestIndex maps partition slots to the sessions interested in them:
// area-of-interest filtering is a bucket lookup, not a per-session range
// scan. The bucket grain is cluster.SlotSize objects — the same 64-object
// slot the partition map owns and the engine's bitmap words cover — so an
// interest window is a contiguous run [lo, hi) of the same slots a partition
// boundary is made of. That is what lets the fan-out bucket a tick by slot
// once and hand each session a sub-slice: the index is read once per
// non-empty slot to find the touched sessions, never per update.
type interestIndex struct {
	subs [][]*Session
}

// newInterestIndex sizes the index for a world of objects.
func newInterestIndex(objects int) *interestIndex {
	return &interestIndex{subs: make([][]*Session, (objects+cluster.SlotSize-1)>>cluster.SlotShift)}
}

// slotRange returns the half-open slot range covering an object range.
func slotRange(r Range) (lo, hi int) {
	return r.Lo >> cluster.SlotShift, (r.Hi + cluster.SlotSize - 1) >> cluster.SlotShift
}

// add registers s in every slot its interest window touches. Caller holds
// the gateway mutex.
func (ix *interestIndex) add(s *Session) {
	for slot := s.lo; slot < s.hi; slot++ {
		ix.subs[slot] = append(ix.subs[slot], s)
	}
}

// remove unregisters s from every slot its interest window touches. Caller
// holds the gateway mutex.
func (ix *interestIndex) remove(s *Session) {
	for slot := s.lo; slot < s.hi; slot++ {
		bucket := ix.subs[slot]
		for i, x := range bucket {
			if x == s {
				bucket[i] = bucket[len(bucket)-1]
				ix.subs[slot] = bucket[:len(bucket)-1]
				break
			}
		}
	}
}
