// Package chaos is deterministic network fault injection: a net.Conn
// wrapper that severs the stream mid-frame after a byte budget or drops
// whole writes, every decision drawn from a stream keyed by a (seed, site)
// pair, so a failing schedule replays from its seed alone. What may drift
// between runs is how far a concurrent peer has got by a given moment, so a
// replay reproduces the same fault at the same per-site write index, not at
// the same nanosecond. Disk faults are disk.Fault and disk.ReadFault.
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// ErrInjected is the sentinel every injected chaos fault matches via
// errors.Is, regardless of site or shape.
var ErrInjected = errors.New("chaos: injected fault")

// Error is the typed fault all injectors return: the site and operation
// identify the schedule cell, N the operation index within the site's
// stream — together with the seed, enough to replay the exact fault.
type Error struct {
	Site string // schedule site, e.g. "replink#0"
	Op   string // operation faulted: "sever"
	N    int64  // site-local write index at which the fault fired
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s fault at %s op %d", e.Op, e.Site, e.N)
}

// Is makes every *Error match ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Rand is a deterministic SplitMix64 stream keyed by (seed, site). Each
// injector owns one; the stream is consumed one draw per decision point, so
// the Kth decision at a site is a pure function of (seed, site, K).
//
// Rand is not goroutine-safe; injectors serialize draws under their own
// locks.
type Rand struct {
	state uint64
}

// NewRand derives the (seed, site) substream: the site name is folded in via
// FNV-1a, the same salt recipe internal/workload uses to keep sibling
// scenarios uncorrelated at a shared seed.
func NewRand(seed int64, site string) *Rand {
	h := fnv.New64a()
	h.Write([]byte(site)) //nolint:errcheck // fnv never fails
	return &Rand{state: uint64(seed)*0x9E3779B97F4A7C15 + h.Sum64()}
}

// Uint64 advances the SplitMix64 stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	x := r.state
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Float64 draws from [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
