package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// manifestName is the cluster metadata file under the cluster root.
const manifestName = "cluster.json"

// NodeCut records one node's newest checkpoint image. A coordinated cut
// (CheckpointWorld) is every node's cut at the same tick; under the
// worker-side CheckpointEvery schedule each node's AsOfTick advances on its
// own. Recovery never trusts the cuts to line up: it reconciles them against
// the logs.
type NodeCut struct {
	Node     int    `json:"node"`
	Epoch    uint64 `json:"epoch"`
	AsOfTick uint64 `json:"as_of_tick"`
}

// Manifest is the durable cluster metadata: the world geometry, the current
// partition map (and the tick it took effect), the coordination window, and
// each node's newest recorded checkpoint. It is rewritten atomically at
// creation, at every migration cutover, and at every cut — the three events
// that change what recovery needs to know. A live cluster holds all of it in
// memory and never reads the file back.
type Manifest struct {
	Table       gamestate.Table `json:"table"`
	Map         PartitionMap    `json:"map"`
	MapFromTick uint64          `json:"map_from_tick"`
	MaxSkew     int             `json:"max_skew,omitempty"`
	NodeCuts    []NodeCut       `json:"node_cuts,omitempty"`
}

// Validate checks everything Recover sizes or indexes from the manifest: it
// is outside input. The window is bounded (it sizes channels and the buffer
// ring), the partition map must cover exactly the table's objects (the
// router indexes owners by object), and every cut must name a distinct real
// node.
func (m *Manifest) Validate() error {
	if err := m.Table.Validate(); err != nil {
		return fmt.Errorf("cluster: manifest: %w", err)
	}
	if err := m.Map.Validate(); err != nil {
		return err
	}
	if m.Map.Objects != m.Table.NumObjects() {
		return fmt.Errorf("cluster: manifest: partition map over %d objects, table has %d", m.Map.Objects, m.Table.NumObjects())
	}
	if m.MaxSkew < 0 || m.MaxSkew > MaxWindow {
		return fmt.Errorf("cluster: manifest: max_skew %d outside [0, %d]", m.MaxSkew, MaxWindow)
	}
	seen := make(map[int]bool, len(m.NodeCuts))
	for _, cut := range m.NodeCuts {
		if cut.Node < 0 || cut.Node >= m.Map.NumNodes {
			return fmt.Errorf("cluster: manifest: cut for node %d of %d", cut.Node, m.Map.NumNodes)
		}
		if seen[cut.Node] {
			return fmt.Errorf("cluster: manifest: two cuts for node %d", cut.Node)
		}
		seen[cut.Node] = true
	}
	return nil
}

// manifest assembles the current manifest value.
func (c *Cluster) manifest() *Manifest {
	last := c.routing.epochs[len(c.routing.epochs)-1]
	man := &Manifest{Table: c.opts.Table, Map: last.Map, MapFromTick: last.FromTick, MaxSkew: c.opts.MaxSkew}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.nodes {
		if cut, ok := c.cuts[i]; ok {
			man.NodeCuts = append(man.NodeCuts, cut)
		}
	}
	return man
}

// writeManifest persists the manifest with an atomic rename. Workers (the
// scheduled cuts) and the coordinator both call it.
func (c *Cluster) writeManifest() error {
	c.manMu.Lock()
	defer c.manMu.Unlock()
	return WriteManifest(c.opts.Dir, c.manifest())
}

// WriteManifest atomically replaces the manifest under root.
func WriteManifest(root string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: manifest: %w", err)
	}
	tmp := filepath.Join(root, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("cluster: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(root, manifestName)); err != nil {
		return fmt.Errorf("cluster: manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and validates the manifest under root.
func ReadManifest(root string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return nil, fmt.Errorf("cluster: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// WorldRecovery is the outcome of whole-world recovery: every node's
// pipeline result plus the cluster-level wall time — which is the slowest
// node's recovery, exactly the quantity the paper's Section 8 says gates a
// multi-server world, here measured instead of modeled.
type WorldRecovery struct {
	// PerNode holds each node's parallel-pipeline breakdown. Standby
	// promotions did not run a pipeline; their entry carries only NextTick.
	PerNode []recovery.ParallelResult
	// Modes records which ladder rung actually served each node's recovery
	// (RecoveryPeerRAM, RecoveryStandby or RecoveryDisk — never
	// RecoveryAuto).
	Modes []RecoveryMode
	// Fallbacks records, per node, why the rungs above the serving one fell
	// through ("" when the first rung served).
	Fallbacks []string
	// Wall is start → last node recovered (nodes recover concurrently, each
	// from its own checkpoint).
	Wall time.Duration
	// Cut is the consistent cut C the world was recovered at: the highest
	// tick every partition durably reached.
	Cut uint64
	// WorldTick is the tick the world resumes at: C+1, or 0 for a world that
	// crashed before any tick was dispatched.
	WorldTick uint64
	// RolledForward counts, per node, the ticks replayed out of the inbox
	// store past the node's own local WAL — the roll-forward that replaces
	// "all nodes crashed at the same tick" at MaxSkew > 0.
	RolledForward []uint64
}

// TornError reports a node whose recovered tick disagrees with the cut, so
// no consistent world exists to resume. Without a message store the nodes'
// own logs disagree — some node's WAL lost its tail. With one, the node's
// WAL holds ticks the inboxes have lost (a hard kill without SyncEveryTick
// can drop an inbox tail), or an inbox claims ticks some node never durably
// reached: the inbox logs no longer bound the world. Either way recovery
// refuses rather than resume a torn world.
type TornError struct {
	Node int    // the node that disagrees
	Tick uint64 // the tick its recovery reached (its engine NextTick)
	Cut  uint64 // the tick the cut says the world resumes at (C+1)
}

// Error renders the disagreement: which node, where it landed, where the
// cut says the world resumes.
func (e *TornError) Error() string {
	return fmt.Sprintf("cluster: recovered world is torn: node %d at tick %d, the cut resumes at %d",
		e.Node, e.Tick, e.Cut)
}

// recoverNode walks one partition down the recovery-mode ladder. Every rung
// failure is recorded and falls through; the disk pipeline is the final
// rung, so the returned mode is always the one that actually served. The
// disk rung extends replay past the node's own WAL with tail (nil for none):
// the capped inbox, see engine.RecoverWithTail.
func recoverNode(root string, opts Options, i int, tail func() (recovery.RecordSource, error)) (*engine.Engine, recovery.ParallelResult, RecoveryMode, string, error) {
	var notes []string
	note := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }
	eopts := nodeEngineOptions(opts, NodeDir(root, i))
	mode := opts.RecoveryMode

	if mode == RecoveryAuto || mode == RecoveryPeerRAM {
		sp := telemetry.StartSpan("recovery/rung",
			telemetry.Int("node", int64(i)), telemetry.Str("rung", "peerram"))
		if opts.PeerRAM == nil {
			note("peerram: no mesh")
		} else if src, holder, err := opts.PeerRAM.Source(i); err != nil {
			note("%v", err)
		} else if e, pres, err := engine.RecoverFromPeer(eopts, src); err != nil {
			note("peerram via node %d: %v", holder, err)
		} else {
			sp.End(telemetry.Str("outcome", "served"))
			return e, pres, RecoveryPeerRAM, strings.Join(notes, "; "), nil
		}
		sp.End(telemetry.Str("outcome", "fallthrough"))
		telFallthrough.With("peerram").Inc()
	}
	if mode == RecoveryAuto || mode == RecoveryStandby {
		sp := telemetry.StartSpan("recovery/rung",
			telemetry.Int("node", int64(i)), telemetry.Str("rung", "standby"))
		var sb *replication.Standby
		if i < len(opts.Standbys) {
			sb = opts.Standbys[i]
		}
		if sb == nil {
			note("%v %d", ErrNoStandby, i)
		} else if e, err := sb.Promote(); err != nil {
			note("standby node %d: %v", i, err)
		} else {
			// No pipeline ran; the promoted engine's tick is the whole story.
			var pres recovery.ParallelResult
			pres.BackupIndex = -1
			pres.NextTick = e.NextTick()
			sp.End(telemetry.Str("outcome", "served"))
			return e, pres, RecoveryStandby, strings.Join(notes, "; "), nil
		}
		sp.End(telemetry.Str("outcome", "fallthrough"))
		telFallthrough.With("standby").Inc()
	}
	sp := telemetry.StartSpan("recovery/rung",
		telemetry.Int("node", int64(i)), telemetry.Str("rung", "disk"))
	e, pres, err := engine.RecoverWithTail(eopts, tail)
	if err != nil {
		sp.End(telemetry.Str("outcome", "failed"))
	} else {
		sp.End(telemetry.Str("outcome", "served"))
	}
	return e, pres, RecoveryDisk, strings.Join(notes, "; "), err
}

// Recover performs whole-world recovery of a crashed cluster under root and
// resumes it from a consistent cut.
//
// The cut is C = the minimum over nodes of each node's durable horizon.
// Without a message store the horizon is the node's own log: the tick its
// recovery reaches. With one it is the last tick in the node's inbox, or its
// manifest checkpoint when that is newer (a cut prunes the inbox ticks the
// image covers, possibly all of them): Tick logs a tick to all inboxes
// before any node sees it, so every applied tick is in every inbox and C
// bounds what any node can have applied.
//
// Each partition then walks the Options.RecoveryMode ladder independently —
// peer-RAM restore out of a surviving node's replica
// (engine.RecoverFromPeer), warm-standby promotion, and finally the paper's
// disk restore+replay pipeline — all nodes concurrently; a rung that fails
// for one partition falls through for that partition only, and
// WorldRecovery records which rung served whom. The disk rung takes the
// node's inbox, capped at C, as its tail: its own checkpoint image, its own
// WAL, then the logged inbound envelopes replayed past wherever its WAL
// ended (engine.RecoverWithTail, which also heals the WAL so the directory
// is self-sufficient). A node that does not land exactly on C+1 is a
// *TornError, never a silent resume.
//
// Messages still inside the delivery window at the crash are not recovered
// from any log — they are regenerated by re-running opts.Emit (see
// regenerate). opts must carry the same Emit (and world geometry) the
// crashed world ran with; MaxSkew is taken from the manifest, and a
// conflicting opts.MaxSkew is an error.
func Recover(root string, opts Options) (*Cluster, *WorldRecovery, error) {
	man, err := ReadManifest(root)
	if err != nil {
		return nil, nil, err
	}
	if opts.Table != (gamestate.Table{}) && opts.Table != man.Table {
		return nil, nil, fmt.Errorf("cluster: recover geometry %v does not match manifest %v", opts.Table, man.Table)
	}
	opts.Table = man.Table
	opts.Dir = root
	n := man.Map.NumNodes
	// The request folds exactly as New's did before it is compared.
	if opts.Nodes != 0 && Uniform(man.Table.NumObjects(), opts.Nodes).NumNodes != n {
		return nil, nil, fmt.Errorf("cluster: recover with %d nodes, manifest has %d", opts.Nodes, n)
	}
	opts.Nodes = n
	if opts.MaxSkew != 0 && opts.MaxSkew != man.MaxSkew {
		return nil, nil, fmt.Errorf("cluster: recover with MaxSkew %d, manifest has %d", opts.MaxSkew, man.MaxSkew)
	}
	opts.MaxSkew = man.MaxSkew
	if err := opts.check(); err != nil {
		return nil, nil, err
	}

	// With a message store the cut is known up front: the lowest horizon. A
	// node with neither inbox records nor a manifest cut has horizon 0; if
	// any other node is past that, an inbox has been lost, and the check
	// below reports the torn world.
	var resume uint64
	var inboxEnd []uint64 // per node: one past its inbox's final tick
	tailOf := func(int) func() (recovery.RecordSource, error) { return nil }
	if opts.logged() {
		inboxEnd = make([]uint64, n)
		for i := range inboxEnd {
			if inboxEnd[i], err = inboxHorizon(inboxDir(root, i)); err != nil {
				return nil, nil, fmt.Errorf("cluster: node %d inbox: %w", i, err)
			}
		}
		horizon := slices.Clone(inboxEnd)
		for _, cut := range man.NodeCuts {
			horizon[cut.Node] = max(horizon[cut.Node], cut.AsOfTick+1)
		}
		resume = slices.Min(horizon)
		tailOf = func(i int) func() (recovery.RecordSource, error) {
			return func() (recovery.RecordSource, error) {
				r, err := wal.NewReader(inboxDir(root, i), 0)
				if err != nil {
					return nil, err
				}
				return &cappedSource{r: r, end: resume}, nil
			}
		}
	}

	// Recover all partitions concurrently: each node walks its own ladder,
	// and the world is back when the slowest node is.
	wr := &WorldRecovery{
		PerNode:       make([]recovery.ParallelResult, n),
		Modes:         make([]RecoveryMode, n),
		Fallbacks:     make([]string, n),
		RolledForward: make([]uint64, n),
	}
	engines := make([]*engine.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i], wr.PerNode[i], wr.Modes[i], wr.Fallbacks[i], errs[i] = recoverNode(root, opts, i, tailOf(i))
		}(i)
	}
	wg.Wait()
	wr.Wall = time.Since(start)
	telWorldWall.ObserveDuration(wr.Wall)
	telWorldWallLast.Set(wr.Wall.Nanoseconds())
	for i := range errs {
		if errs[i] == nil {
			telServedRung.With(wr.Modes[i].String()).Inc()
		}
	}
	telemetry.RecordSpan("recovery/world", start, start.Add(wr.Wall),
		telemetry.Int("nodes", int64(n)))
	closeAll := func() {
		for _, e := range engines {
			if e != nil {
				e.Close()
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("cluster: node %d recovery: %w", i, err)
		}
	}

	// Without a message store each node's horizon is where its own log took
	// it. Either way every node must land exactly on the cut.
	if !opts.logged() {
		resume = engines[0].NextTick()
		for _, e := range engines[1:] {
			resume = min(resume, e.NextTick())
		}
	}
	for i, e := range engines {
		if tick := e.NextTick(); tick != resume {
			closeAll()
			return nil, wr, &TornError{Node: i, Tick: tick, Cut: resume}
		}
	}
	wr.WorldTick = resume
	if resume > 0 {
		wr.Cut = resume - 1
	}
	if opts.logged() {
		for i := 0; i < n; i++ {
			if resume > wr.PerNode[i].LastLogTick {
				wr.RolledForward[i] = wr.Cut - wr.PerNode[i].LastLogTick
			}
			// Drop inbox records past the cut: those ticks rolled back and will
			// be re-dispatched (identically) by the resumed coordinator.
			if inboxEnd[i] > resume {
				if err := rebuildInbox(inboxDir(root, i), resume); err != nil {
					closeAll()
					return nil, wr, fmt.Errorf("cluster: node %d inbox rebuild: %w", i, err)
				}
			}
		}
	}

	routing := &Routing{epochs: []routingEpoch{{FromTick: man.MapFromTick, Map: man.Map}}}
	c, err := build(opts, routing, resume, man.NodeCuts, func(i int, dir string) (*engine.Engine, error) {
		return engines[i], nil
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	if opts.Emit != nil && resume > 0 {
		c.regenerate(wr.Cut)
	}
	// Re-attach the recovered world to the mesh: attach ships a fresh image
	// per link, so the replicas of the recovered epoch start clean. Standby-
	// promoted nodes attach like any other — their engine is the primary now.
	if err := c.attachPeerRAM(); err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, wr, nil
}
