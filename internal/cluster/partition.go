// Package cluster is the multi-node deployment layer the paper names as
// future work in Section 8: the world's object space is range-partitioned
// over N game-server nodes, each running a full engine over its partition;
// one coordinator drives the ticks under one policy, the window MaxSkew — at
// 0 a tick barrier, so clients see one consistent world and checkpoints are
// coordinated cuts at a common tick; past it nodes tick up to MaxSkew apart
// and cross-partition actions travel as logged messages; whole-world
// recovery reconstructs a consistent cut and restores every partition in
// parallel; and a sub-range can migrate between live nodes without dropping
// a tick, cutting ownership over at a tick boundary. The clusterbench
// experiment measures it.
package cluster

import (
	"fmt"
	"math/bits"

	"repro/internal/wal"
)

// SlotShift is the partition grain: 64 objects per slot, one engine bitmap
// word — the same floor the engine's shard plan aligns to, so any partition
// boundary here is also a legal shard boundary there. It is exported because
// the grain is shared across layers: the session tier's interest management
// buckets area-of-interest subscriptions at the same slot granularity, so an
// interest window is always expressible as partition slots.
const SlotShift = 6

// SlotSize is 1 << SlotShift objects: the number of objects in one
// partition/interest slot.
const SlotSize = 1 << SlotShift

// PartitionMap assigns every object to exactly one node: one owner per
// 64-object slot. Totality is structural — a slot cannot be unowned, and an
// object cannot be in two slots — which is what makes the router's
// exactly-once delivery an invariant rather than a convention. Fields are
// exported for the cluster manifest; treat them as read-only and derive new
// maps with Move.
type PartitionMap struct {
	// Objects is the world's object count.
	Objects int `json:"objects"`
	// NumNodes is the effective node count: ceil(Objects / span) for the
	// power-of-two per-node span Uniform picked, so — exactly like the
	// engine's shard plan — it can fall below the request (tiny worlds
	// fold) and need not itself be a power of two (ragged worlds).
	NumNodes int `json:"num_nodes"`
	// Owners holds one owning node per slot, ceil(Objects/64) entries.
	Owners []int `json:"owners"`
}

// slots returns the slot count for n objects.
func slots(n int) int { return (n + SlotSize - 1) / SlotSize }

// Uniform partitions objects over at most nodes contiguous ranges,
// mirroring the engine's shard plan: the request is rounded down to a
// power of two and each node's span is a power-of-two number of objects,
// at least one slot, so the last node may own a short tail and the
// effective count (NumNodes) can be smaller than — and, for ragged
// worlds, a non-power-of-two below — the request.
func Uniform(objects, nodes int) PartitionMap {
	if nodes < 1 {
		nodes = 1
	}
	nodes = 1 << (bits.Len(uint(nodes)) - 1)
	target := (objects + nodes - 1) / nodes
	shift := uint(bits.Len(uint(target - 1)))
	if target <= 1 {
		shift = 0
	}
	if shift < SlotShift {
		shift = SlotShift
	}
	effective := (objects + (1 << shift) - 1) >> shift
	if effective < 1 {
		effective = 1
	}
	m := PartitionMap{Objects: objects, NumNodes: effective, Owners: make([]int, slots(objects))}
	for s := range m.Owners {
		m.Owners[s] = s >> (shift - SlotShift)
	}
	return m
}

// Validate checks structural totality: full slot coverage and every owner a
// real node.
func (m PartitionMap) Validate() error {
	if m.Objects <= 0 {
		return fmt.Errorf("cluster: partition map over %d objects", m.Objects)
	}
	if len(m.Owners) != slots(m.Objects) {
		return fmt.Errorf("cluster: partition map has %d slots, want %d", len(m.Owners), slots(m.Objects))
	}
	if m.NumNodes < 1 {
		return fmt.Errorf("cluster: partition map over %d nodes", m.NumNodes)
	}
	for s, o := range m.Owners {
		if o < 0 || o >= m.NumNodes {
			return fmt.Errorf("cluster: slot %d owned by node %d of %d", s, o, m.NumNodes)
		}
	}
	return nil
}

// Owner returns the node owning an object.
func (m PartitionMap) Owner(obj int) int { return m.Owners[obj>>SlotShift] }

// Range is a contiguous object range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// NodeRanges returns the contiguous object ranges owned by node, in order.
// A freshly Uniform map yields one range per node; migrations fragment
// ownership and this reassembles it.
func (m PartitionMap) NodeRanges(node int) []Range {
	var rs []Range
	for s := 0; s < len(m.Owners); s++ {
		if m.Owners[s] != node {
			continue
		}
		lo := s * SlotSize
		for s+1 < len(m.Owners) && m.Owners[s+1] == node {
			s++
		}
		hi := (s + 1) * SlotSize
		if hi > m.Objects {
			hi = m.Objects
		}
		rs = append(rs, Range{Lo: lo, Hi: hi})
	}
	return rs
}

// Move derives a new map with objects [lo, hi) owned by node to. The range
// must be slot-aligned (lo a multiple of 64; hi a multiple of 64 or the
// object count), non-empty, and currently owned by a single node — the unit
// a live migration transfers.
func (m PartitionMap) Move(lo, hi, to int) (PartitionMap, error) {
	if lo < 0 || hi > m.Objects || lo >= hi {
		return m, fmt.Errorf("cluster: move range [%d,%d) outside [0,%d)", lo, hi, m.Objects)
	}
	if lo%SlotSize != 0 || (hi%SlotSize != 0 && hi != m.Objects) {
		return m, fmt.Errorf("cluster: move range [%d,%d) not aligned to %d-object slots", lo, hi, SlotSize)
	}
	if to < 0 || to >= m.NumNodes {
		return m, fmt.Errorf("cluster: move to node %d of %d", to, m.NumNodes)
	}
	from := m.Owner(lo)
	for s := lo >> SlotShift; s < slots(hi); s++ {
		if m.Owners[s] != from {
			return m, fmt.Errorf("cluster: move range [%d,%d) spans owners %d and %d", lo, hi, from, m.Owners[s])
		}
	}
	if from == to {
		return m, fmt.Errorf("cluster: move range [%d,%d) already owned by node %d", lo, hi, to)
	}
	next := PartitionMap{Objects: m.Objects, NumNodes: m.NumNodes, Owners: append([]int(nil), m.Owners...)}
	for s := lo >> SlotShift; s < slots(hi); s++ {
		next.Owners[s] = to
	}
	return next, nil
}

// Routing is the partition map in force and the tick it took effect.
// Ownership changes only at tick boundaries — a cutover installs a whole new
// map from a tick on, never a mid-tick split. That is the invariant that
// makes a migration drop zero ticks: for every tick there is exactly one
// owner of every object, before, at and after the cut.
type Routing struct {
	cur      PartitionMap
	fromTick uint64
}

// NewRouting starts with m effective from fromTick (0 for a fresh world; the
// recovered world tick when reloading a manifest).
func NewRouting(m PartitionMap, fromTick uint64) (*Routing, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Routing{cur: m, fromTick: fromTick}, nil
}

// Current returns the map in force.
func (r *Routing) Current() PartitionMap { return r.cur }

// Cut installs m as the owner of the world from fromTick on. fromTick must
// be strictly after the current map's start — ownership changes at tick
// boundaries, in order.
func (r *Routing) Cut(fromTick uint64, m PartitionMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if fromTick <= r.fromTick {
		return fmt.Errorf("cluster: routing cut at tick %d not after map start %d", fromTick, r.fromTick)
	}
	if m.Objects != r.cur.Objects {
		return fmt.Errorf("cluster: routing cut changes world size %d → %d", r.cur.Objects, m.Objects)
	}
	r.cur, r.fromTick = m, fromTick
	return nil
}

// RouteTick partitions one tick's update batch into per-node batches by
// ownership under m, preserving batch order within each node (updates to
// one cell always land on one node, so per-cell order is global order).
// perNode is reused across ticks.
func RouteTick(m PartitionMap, cellsPerObj uint32, batch []wal.Update, perNode [][]wal.Update) [][]wal.Update {
	for i := range perNode {
		perNode[i] = perNode[i][:0]
	}
	for _, u := range batch {
		n := m.Owner(int(u.Cell / cellsPerObj))
		perNode[n] = append(perNode[n], u)
	}
	return perNode
}
