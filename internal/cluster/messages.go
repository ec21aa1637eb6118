package cluster

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/wal"
)

// The logged world. A world with a non-zero window or a message source
// (Options.logged) cannot lean on "every node crashed at the same tick,
// nothing was in flight"; two mechanisms replace that:
//
//   - Cross-partition actions become messages (message logging). A node
//     applying its tick T may emit updates for objects it does not own
//     (Options.Emit); they are delivered to the owners at tick T+MaxSkew+1 —
//     beyond the window, so no destination can have passed that tick — and
//     logged with their origin (node, tick) in the destination's log.
//
//   - Every dispatched envelope is appended to the destination node's own
//     log *before* any node sees the tick (engine.LogTickEnvelopes), and the
//     node applies it later without logging it again: the node's log is its
//     inbox. After a crash the logs bound what any node can have applied, so
//     Recover can reconstruct a consistent cut from them, cut the ticks past
//     it, replay every node to it, and regenerate the messages still in
//     flight. A world recovered at cut C is byte-identical to the barrier
//     world run to C.
//
// The bounded window is also why the classic uncoordinated-checkpoint domino
// effect cannot occur here: a node never needs to roll *back* to find a
// consistent state, because every tick at or below C is fully determined by
// the logs — recovery only ever rolls forward.

// EmitFunc produces the cross-partition updates node emits while applying
// tick. It must be a pure function of (node, tick) — like the workload
// scenarios it must not read mutable engine state — because recovery re-runs
// it to regenerate the messages that were still inside the delivery window
// when the world crashed. Updates it returns may target any owner (including
// the emitting node); each is delivered at tick+MaxSkew+1.
type EmitFunc func(node int, tick uint64) []wal.Update

// pendingMsg is an emitted cross-partition message waiting for its delivery
// tick.
type pendingMsg struct {
	origin     int
	originTick uint64
	dest       int
	updates    []wal.Update
}

// emit runs the action source for (node, tick), routes the emitted updates
// by ownership, and queues each destination's batch for delivery at
// tick+MaxSkew+1 — the first tick the window guarantees no node has passed.
func (c *Cluster) emit(node int, tick uint64) {
	out := c.opts.Emit(node, tick)
	if len(out) == 0 {
		return
	}
	deliver := tick + c.window + 1
	m := c.routing.Current() // fixed: migration is refused on a logged world
	perDest := make(map[int][]wal.Update)
	for _, u := range out {
		dest := m.Owner(int(u.Cell / c.cellsPerObj))
		perDest[dest] = append(perDest[dest], u)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for dest := range c.nodes {
		if upds, ok := perDest[dest]; ok {
			c.pending[deliver] = append(c.pending[deliver],
				pendingMsg{origin: node, originTick: tick, dest: dest, updates: upds})
		}
	}
}

// logTick completes tick's envelope lists with the cross-partition messages
// due and logs every envelope to its destination's log. The appends of *all*
// nodes complete before *any* node sees the tick — the invariant recovery's
// cut reconstruction rests on.
func (c *Cluster) logTick(tick uint64, envs [][]engine.Envelope) error {
	c.mu.Lock()
	due := c.pending[tick]
	delete(c.pending, tick)
	c.mu.Unlock()
	// Workers queue their emissions concurrently, so pending order is
	// scheduling-dependent; delivery order must not be. All messages due at
	// one tick share an origin tick (tick-MaxSkew-1), so origin order is
	// total, and it is the order recovery's regeneration reproduces.
	sort.Slice(due, func(a, b int) bool {
		if due[a].originTick != due[b].originTick {
			return due[a].originTick < due[b].originTick
		}
		return due[a].origin < due[b].origin
	})
	for _, msg := range due {
		envs[msg.dest] = append(envs[msg.dest], engine.Envelope{
			Origin: int32(msg.origin), OriginTick: msg.originTick, Updates: msg.updates,
		})
	}
	for i, n := range c.nodes {
		if err := n.E.LogTickEnvelopes(tick, envs[i]); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// regenerate re-queues the messages that were in flight at cut by re-running
// Emit (pure by contract) for every origin tick T in [cut-MaxSkew, cut]: a
// message emitted at T is delivered at T+MaxSkew+1, so exactly the emissions
// of those ticks are still undelivered at the cut — their delivery ticks
// [cut+1, cut+MaxSkew+1] are the window the crash emptied — and emissions of
// rolled-back ticks (> cut) recur when the ticks are re-applied.
func (c *Cluster) regenerate(cut uint64) {
	for i := range c.nodes {
		for t := cut - min(cut, c.window); t <= cut; t++ {
			c.emit(i, t)
		}
	}
}
