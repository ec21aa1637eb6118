package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Live partition migration: move objects [Lo, Hi) from their current owner
// to another node without dropping a tick. The transfer reuses the
// replication bootstrap-snapshot + tick-stream protocol (replication
// RangeSender/RangeReceiver over one duplex connection): a consistent
// snapshot of the range as of the start tick, then each subsequent tick's
// range updates, staged into a side buffer on the receiving end — never
// touching the target engine — while the source node keeps owning and
// applying the range. At FinishMigration the coordinator cuts at the next
// tick boundary: the staged buffer (the range as of cut-1) lands on the
// target via engine.InstallRange (one durable WAL record), and the routing
// map flips from the cut tick on. Every tick t < cut was applied by the old
// owner and every tick t ≥ cut by the new one: zero blackout by
// construction, and the report proves it arithmetically.

// ErrMigrationAborted marks a migration torn down without cutting over:
// the staged buffer was discarded, ownership never changed, and the source
// node kept serving the range throughout. errors.Is-match it on the errors
// MigrationAborted and FinishMigration return after a stream cut.
var ErrMigrationAborted = errors.New("cluster: migration aborted")

// Migration is one in-flight range transfer.
type Migration struct {
	Lo, Hi   int
	From, To int
	// StartTick is the first streamed tick (the snapshot covers everything
	// below it).
	StartTick uint64

	c        *Cluster
	sender   *replication.RangeSender
	recv     *replication.RangeReceiver
	recvDone chan error
	fed      uint64 // ticks streamed since StartTick
}

// StartMigration begins moving objects [lo, hi) — slot-aligned, owned by a
// single node — to node to. The snapshot ships immediately (consistent as
// of the last applied tick); subsequent Tick calls stream the range's
// updates until FinishMigration cuts ownership over. One migration may be
// in flight at a time.
func (c *Cluster) StartMigration(lo, hi, to int) (*Migration, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := c.opts.needsBarrier("live migration"); err != nil {
		return nil, err
	}
	if c.mig != nil {
		return nil, errors.New("cluster: a migration is already in flight")
	}
	if c.tick == 0 {
		return nil, errors.New("cluster: migrate before any tick was applied")
	}
	cur := c.routing.Current()
	if _, err := cur.Move(lo, hi, to); err != nil { // alignment, single owner, target
		return nil, err
	}
	from := cur.Owner(lo)

	c.migErr = nil // a new attempt clears the last abort
	geom := replication.RangeGeometry{Lo: lo, Hi: hi, ObjSize: c.opts.Table.ObjSize}
	pipe := c.opts.MigrationPipe
	if pipe == nil {
		pipe = net.Pipe
	}
	sc, rc := pipe()
	recv := replication.NewRangeReceiver(rc, geom)
	m := &Migration{
		Lo: lo, Hi: hi, From: from, To: to,
		c: c, recv: recv, recvDone: make(chan error, 1),
	}
	go func() { m.recvDone <- recv.Run() }()
	sender, err := replication.NewRangeSender(sc, geom)
	if err != nil {
		sc.Close()
		<-m.recvDone
		return nil, err
	}
	m.sender = sender
	nextTick, snap, err := c.nodes[from].E.SnapshotRange(lo, hi)
	if err != nil {
		m.abort()
		return nil, err
	}
	m.StartTick = nextTick // == c.tick: the engine ticks in lockstep
	if err := sender.SendSnapshot(nextTick, snap); err != nil {
		m.abort()
		return nil, err
	}
	c.mig = m
	return m, nil
}

// feed streams one applied tick's range updates to the staging end. Called
// by Tick after the barrier, so the stream trails the applied world by at
// most the in-flight window.
func (m *Migration) feed(tick uint64, batch []wal.Update) error {
	var sub []wal.Update
	for _, u := range batch {
		obj := int(u.Cell / m.c.cellsPerObj)
		if obj >= m.Lo && obj < m.Hi {
			sub = append(sub, u)
		}
	}
	if err := m.sender.SendTick(tick, sub); err != nil {
		return err
	}
	m.fed++
	return nil
}

// MigrationReport is the outcome of a completed migration.
type MigrationReport struct {
	Lo, Hi   int
	From, To int
	// StartTick and CutTick delimit the live window: the new owner applies
	// from CutTick on.
	StartTick, CutTick uint64
	// TicksLive is how many ticks the world kept running mid-transfer.
	TicksLive int
	// BlackoutTicks counts ticks applied by neither owner: ticks in the
	// live window minus ticks streamed and staged. Zero by construction —
	// the report computes it rather than asserting it.
	BlackoutTicks int
	// InstallPause is the cutover barrier work: staging buffer →
	// engine.InstallRange on the new owner (WAL append + sync + slab copy).
	InstallPause time.Duration
}

// FinishMigration cuts the in-flight migration over at the next tick
// boundary: the stream is sealed at the cut, the staged range lands on the
// acquiring node as one durable install record, and ownership flips from
// the cut tick on. Call it between ticks; the next Tick routes the range to
// its new owner.
func (c *Cluster) FinishMigration() (*MigrationReport, error) {
	m := c.mig
	if m == nil {
		if c.migErr != nil {
			return nil, c.migErr
		}
		return nil, errors.New("cluster: no migration in flight")
	}
	cut := c.tick
	if err := m.sender.SendCut(cut); err != nil {
		m.abort()
		c.mig = nil
		c.migErr = fmt.Errorf("%w: cut at tick %d failed: %w", ErrMigrationAborted, cut, err)
		return nil, c.migErr
	}
	if err := <-m.recvDone; err != nil {
		m.sender.Close()
		c.mig = nil
		c.migErr = fmt.Errorf("%w: receiver: %w", ErrMigrationAborted, err)
		return nil, c.migErr
	}
	m.sender.Close()
	c.mig = nil

	t0 := time.Now()
	if err := c.nodes[m.To].E.InstallRange(m.Lo, m.Hi, m.recv.Buffer()); err != nil {
		return nil, fmt.Errorf("cluster: migration install on node %d: %w", m.To, err)
	}
	pause := time.Since(t0)

	next, err := c.routing.Current().Move(m.Lo, m.Hi, m.To)
	if err != nil {
		return nil, err
	}
	if err := c.routing.Cut(cut, next); err != nil {
		return nil, err
	}
	if err := c.writeManifest(); err != nil {
		return nil, err
	}
	telMigLiveWindow.Set(int64(cut - m.StartTick))
	telMigInstall.ObserveDuration(pause)
	telemetry.RecordSpan("cluster/migration-install", t0, t0.Add(pause),
		telemetry.Int("from", int64(m.From)), telemetry.Int("to", int64(m.To)),
		telemetry.Int("cut_tick", int64(cut)))
	return &MigrationReport{
		Lo: m.Lo, Hi: m.Hi, From: m.From, To: m.To,
		StartTick: m.StartTick, CutTick: cut,
		TicksLive:     int(cut - m.StartTick),
		BlackoutTicks: int(cut-m.StartTick) - int(m.fed),
		InstallPause:  pause,
	}, nil
}

// abort tears a migration down without cutting over: the connection is
// closed and the receiver joined. Ownership never changed.
func (m *Migration) abort() {
	if m.sender != nil {
		m.sender.Close()
	}
	<-m.recvDone
}

// MigrationAborted reports why the last migration aborted (errors.Is
// ErrMigrationAborted), or nil if none did. StartMigration clears it.
func (c *Cluster) MigrationAborted() error { return c.migErr }
