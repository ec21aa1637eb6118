package cluster

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/engine"
	"repro/internal/wal"
)

// The logged-message store. A world with a non-zero window or a message
// source (Options.logged) cannot lean on "every node crashed at the same
// tick, nothing was in flight"; two mechanisms replace that:
//
//   - Cross-partition actions become messages (message logging). A node
//     applying its tick T may emit updates for objects it does not own
//     (Options.Emit); they are delivered to the owners at tick T+MaxSkew+1 —
//     beyond the window, so no destination can have passed that tick — and
//     logged with their origin (node, tick) both in the destination's inbox
//     and, as a typed recMessage record, in the destination's own WAL when
//     applied.
//
//   - Every dispatched envelope is appended to the destination's durable
//     inbox log *before* any node sees the tick, so after a crash the inboxes
//     bound what any node can have applied, and Recover can reconstruct a
//     consistent cut from them, roll laggards forward to it, and regenerate
//     the messages still in flight. A world recovered at cut C is
//     byte-identical to the barrier world run to C.
//
// The bounded window is also why the classic uncoordinated-checkpoint domino
// effect cannot occur here: a node never needs to roll *back* to find a
// consistent state, because every tick at or below C is fully determined by
// the inbox logs — recovery only ever rolls forward.

// EmitFunc produces the cross-partition updates node emits while applying
// tick. It must be a pure function of (node, tick) — like the workload
// scenarios it must not read mutable engine state — because recovery re-runs
// it to regenerate the messages that were still inside the delivery window
// when the world crashed. Updates it returns may target any owner (including
// the emitting node); each is delivered at tick+MaxSkew+1.
type EmitFunc func(node int, tick uint64) []wal.Update

// inboxMaint is one node's deferred inbox maintenance after a cut: rotate at
// the next tick boundary, prune below keepFrom.
type inboxMaint struct {
	node     int
	keepFrom uint64
}

// pendingMsg is an emitted cross-partition message waiting for its delivery
// tick.
type pendingMsg struct {
	origin     int
	originTick uint64
	dest       int
	updates    []wal.Update
}

// inboxDir returns node i's inbox store directory under a cluster root.
func inboxDir(root string, i int) string {
	return filepath.Join(NodeDir(root, i), "inbox")
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
// due and logs every envelope to its destination's inbox. The inbox appends
// of *all* nodes complete before *any* node sees the tick — the invariant
// recovery's cut reconstruction rests on.
func (c *Cluster) logTick(tick uint64, envs [][]engine.Envelope) error {
	// Deferred inbox maintenance from cuts: this is the tick boundary —
	// nothing at or past tick is appended yet, so the sealed segments hold
	// exactly the ticks below it and name-based pruning is sound.
	if err := c.maintainInboxes(tick); err != nil {
		return err
	}
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
		for _, env := range envs[i] {
			c.encBuf = engine.EncodeEnvelopeRecord(c.encBuf[:0], env)
			if err := n.inbox.Append(tick, c.encBuf); err != nil {
				return fmt.Errorf("cluster: node %d inbox: %w", i, err)
			}
		}
		if c.opts.SyncEveryTick {
			if err := n.inbox.Sync(); err != nil {
				return fmt.Errorf("cluster: node %d inbox: %w", i, err)
			}
		}
	}
	return nil
}

// maintainInboxes runs the inbox maintenance cuts have queued: rotate each
// cut node's inbox at the tick boundary next (nothing at or past next has
// been appended yet; a second rotation at one boundary finds the segment
// empty and is a no-op) and prune sealed segments the node's checkpoint
// image covers. Roll-forward never replays ticks the image holds, so
// dropping them keeps the inbox scan — and recovery — short. Caller is the
// coordinator, the inboxes' only appender.
func (c *Cluster) maintainInboxes(next uint64) error {
	c.mu.Lock()
	maint := c.maint
	c.maint = nil
	c.mu.Unlock()
	for _, mt := range maint {
		inbox := c.nodes[mt.node].inbox
		err := inbox.Rotate(next)
		if err == nil {
			err = inbox.Prune(mt.keepFrom)
		}
		if err != nil {
			return fmt.Errorf("cluster: node %d inbox maintenance: %w", mt.node, err)
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

// cappedSource adapts an inbox reader into a recovery.RecordSource that ends
// at the cut: records with tick >= end are unread, as if the log ended there.
// Its payloads alias the reader's mappings, so the reader stays open after the
// stream ends, until the consumer calls Close.
type cappedSource struct {
	r    *wal.Reader
	end  uint64
	done bool
}

func (s *cappedSource) Next() (uint64, []byte, bool, error) {
	if s.done {
		return 0, nil, false, nil
	}
	tick, payload, err := s.r.Next()
	if err == nil && tick < s.end {
		return tick, payload, true, nil
	}
	s.done = true
	if err == io.EOF {
		err = nil
	}
	return 0, nil, false, err
}

// Close releases the reader; no payload Next returned may be read afterwards.
func (s *cappedSource) Close() error { return s.r.Close() }

// inboxHorizon is the tick node i can resume at as far as its inbox knows:
// one past the inbox's final tick (0 for an empty inbox). It full-scans:
// wal.Open's cached lastTick covers only the final segment, which rotation
// can leave empty; the inboxes are pruned to roughly a window's worth of
// ticks, so the scan is short.
func inboxHorizon(dir string) (uint64, error) {
	r, err := wal.NewReader(dir, 0)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	var horizon uint64
	for {
		tick, _, err := r.Next()
		if err == io.EOF {
			return horizon, nil
		}
		if err != nil {
			return 0, err
		}
		horizon = tick + 1
	}
}

// rebuildInbox rewrites an inbox to hold only records with tick < end.
// Stale ticks past the cut are dispatch work the crash rolled back; the
// coordinator will re-dispatch those ticks (identically — the workload and
// Emit are pure), and leaving the old records in place would both break the
// log's non-decreasing append order and replay the ticks twice on the next
// recovery.
func rebuildInbox(dir string, end uint64) error {
	tmp := dir + ".rebuild"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	out, err := wal.Open(tmp)
	if err != nil {
		return err
	}
	defer out.Close() // error paths; the success path checks Close below
	r, err := wal.NewReader(dir, 0)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == nil && tick < end {
			err = out.Append(tick, payload)
		}
		if err != nil {
			return err
		}
	}
	if err := out.Sync(); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	r.Close()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}
