package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Live partition migration is a coordinated cut: move objects [Lo, Hi) from
// their current owner to another node between two ticks, without dropping
// one. At MaxSkew = 0 every node has applied the last dispatched tick when
// Tick returns, so the source's slab holds the range exactly as of the tick
// boundary. Migrate copies it out (engine.SnapshotRange), lands it on the
// target as one durable WAL record (engine.InstallRange, logged at the tick
// about to run), flips the routing map from that tick on and rewrites the
// manifest. Every tick t < cut was applied by the old owner and every tick
// t ≥ cut by the new one.

// MigrationReport is the outcome of a completed migration.
type MigrationReport struct {
	Lo, Hi   int
	From, To int
	// CutTick is the first tick the new owner applies.
	CutTick uint64
	// Pause is the coordinator's stall for the cut: copying the range out of
	// the source slab, then engine.InstallRange on the new owner (WAL append
	// + sync + slab copy).
	Pause time.Duration
}

// Migrate moves objects [lo, hi) — slot-aligned, owned by a single node — to
// node to at the current tick boundary. Call it between ticks on the
// coordinator goroutine; the next Tick routes the range to its new owner.
//
// A crash after the install record is durable but before the manifest
// rename leaves the old map on disk: recovery resumes with the source still
// owning the range (the target's install record only rewrites bytes it does
// not own), and the migration can simply be retried.
func (c *Cluster) Migrate(lo, hi, to int) (*MigrationReport, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := c.opts.needsBarrier("live migration"); err != nil {
		return nil, err
	}
	if c.tick == 0 {
		return nil, errors.New("cluster: migrate before any tick was applied")
	}
	cur := c.routing.Current()
	next, err := cur.Move(lo, hi, to) // alignment, single owner, target
	if err != nil {
		return nil, err
	}
	from, cut := cur.Owner(lo), c.tick

	t0 := time.Now()
	_, data, err := c.nodes[from].E.SnapshotRange(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("cluster: migration snapshot on node %d: %w", from, err)
	}
	if err := c.nodes[to].E.InstallRange(lo, hi, data); err != nil {
		return nil, fmt.Errorf("cluster: migration install on node %d: %w", to, err)
	}
	pause := time.Since(t0)

	if err := c.routing.Cut(cut, next); err != nil {
		return nil, err
	}
	if err := c.writeManifest(); err != nil {
		return nil, err
	}
	telMigPause.ObserveDuration(pause)
	telemetry.RecordSpan("cluster/migration", t0, t0.Add(pause),
		telemetry.Int("from", int64(from)), telemetry.Int("to", int64(to)),
		telemetry.Int("cut_tick", int64(cut)))
	return &MigrationReport{Lo: lo, Hi: hi, From: from, To: to, CutTick: cut, Pause: pause}, nil
}
