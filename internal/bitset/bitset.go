// Package bitset provides the dense bitmaps that back the dirty-object
// bookkeeping of the checkpointing algorithms: one bit per atomic object,
// with the operations the algorithms of the paper need — set/test,
// population counts, contiguous-run counting (for the ΔTsync group term),
// rank queries (for log-flush cursors), and whole-set snapshot/clear.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-size bitmap over [0, Len()).
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of n bits, all clear. n must be non-negative.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// SetAll sets every bit.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
}

// trimTail clears the unused bits of the last word so Count and Runs stay
// exact.
func (s *Set) trimTail() {
	if rem := uint(s.n) & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// CopyFrom overwrites s with the contents of src. Both sets must have the
// same length.
func (s *Set) CopyFrom(src *Set) {
	if s.n != src.n {
		panic(fmt.Sprintf("bitset: CopyFrom length mismatch %d != %d", s.n, src.n))
	}
	copy(s.words, src.words)
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Runs returns the number of maximal runs of consecutive set bits. The paper
// charges one Omem memory-latency term per contiguous group of atomic
// objects copied, so eager-copy methods need this count.
func (s *Set) Runs() int {
	runs := 0
	prev := false
	for _, w := range s.words {
		if w == 0 {
			prev = false
			continue
		}
		if w == ^uint64(0) {
			if !prev {
				runs++
			}
			prev = true
			continue
		}
		// Count 0→1 transitions inside the word; account for the boundary
		// with the previous word.
		rising := w &^ ((w << 1) | boolBit(prev))
		runs += bits.OnesCount64(rising)
		prev = w>>63 != 0
	}
	return runs
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Rank is a static rank index over a snapshot of a Set. Rank queries answer
// "how many set bits precede position i", which the simulator uses to decide
// whether a log-flush cursor (that writes the k dirty objects in offset
// order) has already passed a given object.
type Rank struct {
	set    *Set
	prefix []int32 // prefix[w] = set bits in words [0, w)
	total  int
}

// NewRank builds a rank index over a snapshot (clone) of src. Later mutations
// of src do not affect the index.
func NewRank(src *Set) *Rank {
	s := src.Clone()
	prefix := make([]int32, len(s.words)+1)
	total := 0
	for i, w := range s.words {
		prefix[i] = int32(total)
		total += bits.OnesCount64(w)
	}
	prefix[len(s.words)] = int32(total)
	return &Rank{set: s, prefix: prefix, total: total}
}

// Total returns the number of set bits in the snapshot.
func (r *Rank) Total() int { return r.total }

// Rank returns the number of set bits strictly before position i.
func (r *Rank) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= r.set.n {
		return r.total
	}
	w := i >> 6
	mask := uint64(1)<<(uint(i)&63) - 1
	return int(r.prefix[w]) + bits.OnesCount64(r.set.words[w]&mask)
}

// Test reports whether bit i is set in the snapshot.
func (r *Rank) Test(i int) bool { return r.set.Test(i) }
