// Package peerram implements replicated in-memory checkpoints across the
// cluster: every node keeps a compressed replica of its ring predecessor's
// latest checkpoint image plus its dirty-since-cut tick deltas, so a crashed
// partition can be restored out of a surviving peer's RAM at memory speed
// instead of through the paper's disk-bound restore+replay pipeline — the
// ReStore idea applied to the MMO tick engine.
//
// The replica stream is the warm-standby wire protocol with the standby
// replaced by compressed bytes: the same framed connection
// (replication.Conn, frame types 10–12 alongside the standby stream's
// 1–9), the same WAL tail-follow woken by the engine's
// tick-commit signal, and the same ack-based log retention — so replication
// adds no connections of its own kind and no fsyncs to the tick path. On
// recovery, a surviving holder's replica feeds engine.RecoverWith: the
// image streams into the slab per shard range while the delta records and
// the crashed node's own WAL tail replay through the same gated
// restore∥replay pipeline as a disk recovery, which is what makes the two
// byte-identical by construction.
package peerram

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/replication"
)

// link is one (owner → holder) replica stream.
type link struct {
	holder int
	sender *Sender
	recv   *Holder
}

// Mesh is the cluster's replica placement map: node i's checkpoint image
// and delta tail are held by its ring successor, (i+1) mod n. It owns the
// per-node stores and the sender/holder pair of every link. A Mesh
// deliberately outlives the Cluster that attached to it — the surviving
// nodes' RAM is exactly what peer-RAM recovery restores from after the
// cluster's engines have crashed.
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

// Attach starts owner's replica link: one sender on e and one holder on the
// ring successor, connected by an in-process pipe (the frames are designed
// to multiplex onto the cluster's existing streams; the pipe stands in for
// that mux). The initial image ships in the background; Drain awaits it.
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
	sc, hc := net.Pipe()
	recv := StartHolder(owner, m.stores[h], hc)
	sender, err := StartSender(e, sc, replication.StreamOptions{})
	if err != nil {
		recv.Stop() //nolint:errcheck // unwinding
		return err
	}
	m.links[owner] = &link{holder: h, sender: sender, recv: recv}
	return nil
}

// Refresh ships a fresh checkpoint image on owner's link, if its holder is
// alive. Call it right after a coordinated checkpoint cut so the replica
// tracks the newest image and drops the deltas it supersedes.
func (m *Mesh) Refresh(owner int) error {
	if l := m.liveLink(owner); l != nil {
		if err := l.sender.RefreshImage(); err != nil {
			return err
		}
	}
	telRefreshes.Inc()
	m.updateReplicaBytes()
	return nil
}

// Drain blocks until a live holder of owner's replica covers tick, or the
// timeout elapses. It is the graceful-shutdown barrier: after Drain,
// owner's full history through tick is in its peer's RAM.
func (m *Mesh) Drain(owner int, tick uint64, timeout time.Duration) error {
	if l := m.liveLink(owner); l != nil {
		if err := l.sender.AwaitAck(tick, timeout); err != nil {
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
	if l := m.links[owner]; l != nil && !m.dead[l.holder] {
		return l
	}
	return nil
}

// Detach stops owner's link (sender first, then holder), leaving the
// holder's store intact: the replica stays servable, frozen at its last
// acked tick. Call it before closing owner's engine.
func (m *Mesh) Detach(owner int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.links[owner]; l != nil {
		l.sender.Stop() //nolint:errcheck // teardown
		l.recv.Stop()   //nolint:errcheck // teardown
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
