// Package peerram implements replicated in-memory checkpoints across the
// cluster: every node keeps a compressed replica of its ring predecessor's
// latest checkpoint image plus its dirty-since-cut tick deltas, so a crashed
// partition can be restored out of a surviving peer's RAM at memory speed
// instead of through the paper's disk-bound restore+replay pipeline — the
// ReStore idea applied to the MMO tick engine.
//
// The replica feed is in process. One goroutine per (owner → holder) link
// follows the owner's WAL through engine.LogFollower — the same follower
// that feeds the warm-standby Shipper — and puts each whole tick, flate
// compressed, straight into the holder's Store. The store's watermark is
// the owner's log retention, and nothing on the tick path fsyncs. On
// recovery, a surviving holder's replica feeds engine.RecoverWith: the
// image streams into the slab per shard range while the delta records and
// the crashed node's own WAL tail replay through the same gated
// restore∥replay pipeline as a disk recovery, which is what makes the two
// byte-identical by construction.
package peerram

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// Mesh is the cluster's replica placement map: node i's checkpoint image
// and delta tail are held by its ring successor, (i+1) mod n. It owns the
// per-node stores and the feed of every link. A Mesh deliberately outlives
// the Cluster that attached to it — the surviving nodes' RAM is exactly
// what peer-RAM recovery restores from after the cluster's engines have
// crashed.
type Mesh struct {
	n int

	mu     sync.Mutex
	stores []*Store
	links  []*link // by owner; nil while detached
	dead   []bool
}

// NewMesh builds an idle mesh for an n-node cluster. Links start when the
// cluster attaches its engines.
func NewMesh(n int) *Mesh {
	m := &Mesh{
		n:      n,
		stores: make([]*Store, n),
		links:  make([]*link, n),
		dead:   make([]bool, n),
	}
	for i := range m.stores {
		m.stores[i] = NewStore()
	}
	return m
}

// holder returns the node holding owner's replica, its ring successor, or
// -1 in a 1-node mesh, where no peer exists.
func (m *Mesh) holder(owner int) int {
	if m.n < 2 {
		return -1
	}
	return (owner + 1) % m.n
}

// Attach starts owner's replica link: one goroutine following e's log into
// the ring successor's store. The initial image is put in the background;
// Drain awaits it.
// The caller must Detach (or Crash) owner before closing e.
//
// Attaching a node Crash marked dead revives it with a fresh holder store:
// the recovered node rejoins the mesh with empty RAM, exactly like a real
// restart, and begins re-accumulating its predecessor's replica as it
// refreshes.
func (m *Mesh) Attach(owner int, e *engine.Engine) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if owner < 0 || owner >= m.n {
		return fmt.Errorf("peerram: attach owner %d of %d", owner, m.n)
	}
	if m.dead[owner] {
		m.dead[owner] = false
		m.stores[owner] = NewStore()
	}
	if m.links[owner] != nil {
		return fmt.Errorf("peerram: node %d already attached", owner)
	}
	h := m.holder(owner)
	if h < 0 {
		return nil
	}
	l, err := startLink(owner, e, m.stores[h])
	if err != nil {
		return err
	}
	m.links[owner] = l
	return nil
}

// Refresh puts a fresh checkpoint image on owner's link, if its holder is
// alive. Call it right after a coordinated checkpoint cut so the replica
// tracks the newest image and drops the deltas it supersedes.
func (m *Mesh) Refresh(owner int) error {
	if l := m.liveLink(owner); l != nil {
		if err := l.refresh(); err != nil {
			return err
		}
	}
	telRefreshes.Inc()
	m.updateReplicaBytes()
	return nil
}

// Drain blocks until a live holder of owner's replica covers tick, the link
// fails, or the timeout elapses. It is the graceful-shutdown barrier: after
// Drain, owner's full history through tick is in its peer's RAM.
func (m *Mesh) Drain(owner int, tick uint64, timeout time.Duration) error {
	if l := m.liveLink(owner); l != nil {
		if err := l.await(tick, timeout); err != nil {
			return err
		}
	}
	telDrains.Inc()
	m.updateReplicaBytes()
	return nil
}

// liveLink returns owner's link when it is attached and its holder node is
// still alive, else nil.
func (m *Mesh) liveLink(owner int) *link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.links[owner]; l != nil && !m.dead[m.holder(owner)] {
		return l
	}
	return nil
}

// Detach stops owner's link, leaving the holder's store intact: the replica
// stays servable, frozen at the last tick it was given. Call it before
// closing owner's engine.
func (m *Mesh) Detach(owner int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.links[owner]; l != nil {
		l.close()
		m.links[owner] = nil
	}
}

// Crash marks node dead: its link stops, its own store's replica is
// poisoned (the node's RAM is gone), but the replica OF node held by its
// surviving successor remains — it is what Source serves.
func (m *Mesh) Crash(node int) {
	m.mu.Lock()
	if node < 0 || node >= m.n || m.dead[node] {
		m.mu.Unlock()
		return
	}
	m.dead[node] = true
	m.mu.Unlock()
	m.Detach(node)
	m.stores[node].MarkDead()
}

// holderStore returns the store of owner's live holder, or nil when owner
// has no peer or its holder crashed.
func (m *Mesh) holderStore(owner int) *Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.holder(owner); h >= 0 && !m.dead[h] {
		return m.stores[h]
	}
	return nil
}

// Source wraps the surviving replica of owner as the engine.RecoverSource
// peer-RAM recovery restores from, returning also the holding node.
// ErrNoReplica means the ladder must fall through to the next rung.
func (m *Mesh) Source(owner int) (engine.RecoverSource, int, error) {
	st := m.holderStore(owner)
	if st == nil {
		return engine.RecoverSource{}, -1, ErrNoReplica
	}
	src, err := NewRestoreSource(st, owner)
	if err != nil {
		return engine.RecoverSource{}, -1, err
	}
	return engine.RecoverSource{
		Image:   src,
		Records: src.Records,
	}, m.holder(owner), nil
}

// FailRestoreAfter arms the chaos fault on owner's held replica: the holder
// dies after serving budget bytes of the restore. Injected reports whether
// it fired.
func (m *Mesh) FailRestoreAfter(owner int, budget int64) {
	if st := m.holderStore(owner); st != nil {
		st.FailAfter(owner, budget)
	}
}

// Injected reports whether an armed FailRestoreAfter fault on owner's
// replica actually fired during a restore.
func (m *Mesh) Injected(owner int) bool {
	h := m.holder(owner)
	return h >= 0 && m.stores[h].Injected(owner)
}

// MemStats returns each node's replica RAM footprint: the compressed image
// and delta bytes it holds on behalf of its peers. It is the memory side of
// the RAM-vs-recovery-time trade clusterbench reports.
func (m *Mesh) MemStats() []int64 {
	stats := make([]int64, m.n)
	for i, st := range m.stores {
		stats[i] = st.CompressedBytes()
	}
	m.updateReplicaBytes()
	return stats
}
