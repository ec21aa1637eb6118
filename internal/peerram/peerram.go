// Package peerram implements replicated in-memory checkpoints across the
// cluster: every node keeps a compressed replica of K peers' latest
// checkpoint image plus their dirty-since-cut tick deltas, so a crashed
// partition can be restored out of surviving peers' RAM at memory speed
// instead of through the paper's disk-bound restore+replay pipeline — the
// ReStore idea applied to the MMO tick engine.
//
// The replica stream is the warm-standby wire protocol with the standby
// replaced by compressed bytes: the same framed connection
// (replication.Conn, frame types 10–12 alongside the standby stream's
// 1–9), the same WAL tail-follow woken by the engine's
// tick-commit signal, and the same ack-based log retention — so replication
// adds no connections of its own kind and no fsyncs to the tick path. On
// recovery, a surviving holder's replica feeds engine.RecoverFromPeer: the
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

// DefaultK is the replication factor when Options.K is unset: each
// partition's checkpoint lives in one peer's RAM besides its own disk.
const DefaultK = 1

// Options configures a replica mesh.
type Options struct {
	// K is the number of peers holding each partition's replica, clamped to
	// the cluster size minus one. <=0 means DefaultK.
	K int
	// MaxLagTicks configures every link's sender; zero takes the
	// replication.StreamOptions default.
	MaxLagTicks int
}

// link is one (owner → holder) replica stream.
type link struct {
	holder int
	sender *Sender
	recv   *Holder
}

// Mesh is the cluster's replica placement map: node i's checkpoint image
// and delta tail are held by the K ring successors (i+1 … i+K mod n). It
// owns the per-node stores and the sender/holder pairs of every link.
// A Mesh deliberately outlives the Cluster that attached to it — the
// surviving nodes' RAM is exactly what peer-RAM recovery restores from
// after the cluster's engines have crashed.
type Mesh struct {
	n    int
	opts Options

	mu     sync.Mutex
	stores []*Store
	links  map[int][]*link // by owner
	dead   []bool
}

// NewMesh builds an idle mesh for an n-node cluster. Links start when the
// cluster attaches its engines.
func NewMesh(n int, opts Options) *Mesh {
	if opts.K <= 0 {
		opts.K = DefaultK
	}
	if opts.K > n-1 {
		opts.K = n - 1
	}
	m := &Mesh{
		n:      n,
		opts:   opts,
		stores: make([]*Store, n),
		links:  make(map[int][]*link),
		dead:   make([]bool, n),
	}
	for i := range m.stores {
		m.stores[i] = NewStore()
	}
	return m
}

// Holders returns the nodes holding owner's replica: the K ring successors.
func (m *Mesh) Holders(owner int) []int {
	holders := make([]int, 0, m.opts.K)
	for j := 1; j <= m.opts.K; j++ {
		holders = append(holders, (owner+j)%m.n)
	}
	return holders
}

// Attach starts owner's replica links: one sender on e and one holder per
// ring successor, connected by an in-process pipe (the frames are designed
// to multiplex onto the cluster's existing streams; the pipe stands in for
// that mux). The initial image ships in the background; Drain awaits it.
// The caller must Detach (or Crash) owner before closing e.
//
// Attaching a node Crash marked dead revives it with a fresh holder store:
// the recovered node rejoins the mesh with empty RAM, exactly like a real
// restart, and begins re-accumulating its peers' replicas as they refresh.
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
	if len(m.links[owner]) > 0 {
		return fmt.Errorf("peerram: node %d already attached", owner)
	}
	sopts := replication.StreamOptions{MaxLagTicks: m.opts.MaxLagTicks}
	for _, h := range m.Holders(owner) {
		sc, hc := net.Pipe()
		recv := StartHolder(owner, m.stores[h], hc)
		sender, err := StartSender(e, sc, sopts)
		if err != nil {
			recv.Stop() //nolint:errcheck // unwinding
			m.detachLocked(owner)
			return err
		}
		m.links[owner] = append(m.links[owner], &link{holder: h, sender: sender, recv: recv})
	}
	return nil
}

// Refresh ships a fresh checkpoint image on every one of owner's live
// links. Call it right after a coordinated checkpoint cut so the replicas
// track the newest image and drop the deltas it supersedes.
func (m *Mesh) Refresh(owner int) error {
	for _, l := range m.liveLinks(owner) {
		if err := l.sender.RefreshImage(); err != nil {
			return err
		}
	}
	telRefreshes.Inc()
	m.updateReplicaBytes()
	return nil
}

// Drain blocks until every live holder of owner's replica covers tick, or
// the timeout elapses. It is the graceful-shutdown barrier: after Drain,
// owner's full history through tick is in its peers' RAM.
func (m *Mesh) Drain(owner int, tick uint64, timeout time.Duration) error {
	for _, l := range m.liveLinks(owner) {
		if err := l.sender.AwaitAck(tick, timeout); err != nil {
			return err
		}
	}
	telDrains.Inc()
	m.updateReplicaBytes()
	return nil
}

// liveLinks returns owner's links whose holder node is still alive.
func (m *Mesh) liveLinks(owner int) []*link {
	m.mu.Lock()
	defer m.mu.Unlock()
	var live []*link
	for _, l := range m.links[owner] {
		if !m.dead[l.holder] {
			live = append(live, l)
		}
	}
	return live
}

// Detach stops owner's links (sender first, then holder), leaving the
// holders' stores intact: the replica stays servable, frozen at its last
// acked tick. Call it before closing owner's engine.
func (m *Mesh) Detach(owner int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.detachLocked(owner)
}

func (m *Mesh) detachLocked(owner int) {
	for _, l := range m.links[owner] {
		l.sender.Stop() //nolint:errcheck // teardown
		l.recv.Stop()   //nolint:errcheck // teardown
	}
	delete(m.links, owner)
}

// Crash marks node dead: its links stop, its own store's replicas are
// poisoned (the node's RAM is gone), but the replicas OF node held by
// surviving peers remain — they are what Source serves.
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

// Source picks the freshest surviving replica of owner and wraps it as the
// engine.RecoverSource peer-RAM recovery restores from, returning also the
// holding node. ErrNoReplica means the ladder must fall through to the next
// recovery mode.
func (m *Mesh) Source(owner int) (engine.RecoverSource, int, error) {
	m.mu.Lock()
	holders := m.Holders(owner)
	dead := append([]bool(nil), m.dead...)
	stores := append([]*Store(nil), m.stores...)
	m.mu.Unlock()

	best, bestHolder := (*RestoreSource)(nil), -1
	var bestMark uint64
	for _, h := range holders {
		if h == owner || dead[h] {
			continue
		}
		mark, ok := stores[h].Watermark(owner)
		if !ok {
			continue
		}
		src, err := NewRestoreSource(stores[h], owner)
		if err != nil {
			continue
		}
		if best == nil || mark > bestMark {
			best, bestHolder, bestMark = src, h, mark
		}
	}
	if best == nil {
		return engine.RecoverSource{}, -1, ErrNoReplica
	}
	return engine.RecoverSource{
		Image:   best,
		Prelude: best.Records,
	}, bestHolder, nil
}

// FailRestoreAfter arms the chaos fault on every held replica of owner:
// whichever holder ends up serving the restore dies after serving budget
// bytes. Injected reports whether it fired.
func (m *Mesh) FailRestoreAfter(owner int, budget int64) {
	m.mu.Lock()
	stores := append([]*Store(nil), m.stores...)
	m.mu.Unlock()
	for _, h := range m.Holders(owner) {
		if h != owner {
			stores[h].FailAfter(owner, budget)
		}
	}
}

// Injected reports whether an armed FailRestoreAfter fault on owner's
// replica actually fired during a restore.
func (m *Mesh) Injected(owner int) bool {
	for _, h := range m.Holders(owner) {
		if h != owner && m.stores[h].Injected(owner) {
			return true
		}
	}
	return false
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
