package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/telemetry"
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
	man := &Manifest{Table: c.opts.Table, Map: c.routing.cur, MapFromTick: c.routing.fromTick, MaxSkew: c.opts.MaxSkew}
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
	// Modes records which ladder rung actually served each node's recovery.
	Modes []RecoveryMode
	// Fallbacks records, per node, why an attached standby fell through to
	// disk ("" when the first attached rung served).
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
}

// TornError reports a node whose recovered tick disagrees with the cut, so
// no consistent world exists to resume. In a barrier world the nodes' own
// logs disagree — some node's WAL lost its tail. In a logged world some
// node's image is past the last tick every node's log holds whole (a hard
// kill without SyncEveryTick can drop or tear a log's tail): the logs no
// longer bound the world. Either way recovery refuses rather than resume a
// torn world.
type TornError struct {
	Node int    // the node that disagrees
	Tick uint64 // the tick its recovery reaches (its engine NextTick; at least one past its image)
	Cut  uint64 // the tick the cut says the world resumes at (C+1)
}

// Error renders the disagreement: which node, where it landed, where the
// cut says the world resumes.
func (e *TornError) Error() string {
	return fmt.Sprintf("cluster: recovered world is torn: node %d at tick %d, the cut resumes at %d",
		e.Node, e.Tick, e.Cut)
}

// recoverNode walks one partition down its recovery ladder: the warm standby
// (Standbys[i]) when the caller attached one, then the disk pipeline, which
// is always there. A standby that was not attached is skipped without a
// trace; an attached one that fails is noted, counted and falls through, so
// the returned mode is always the one that actually served.
func recoverNode(root string, opts Options, i int) (*engine.Engine, recovery.ParallelResult, RecoveryMode, string, error) {
	rung := func(m RecoveryMode) *telemetry.Span {
		return telemetry.StartSpan("recovery/rung",
			telemetry.Int("node", int64(i)), telemetry.Str("rung", m.String()))
	}
	var note string
	if i < len(opts.Standbys) && opts.Standbys[i] != nil {
		sp := rung(RecoveryStandby)
		e, err := opts.Standbys[i].Promote()
		if err == nil {
			// No pipeline ran; the promoted engine's tick is the whole story.
			var pres recovery.ParallelResult
			pres.BackupIndex = -1
			pres.NextTick = e.NextTick()
			sp.End(telemetry.Str("outcome", "served"))
			return e, pres, RecoveryStandby, "", nil
		}
		note = fmt.Sprintf("standby node %d: %v", i, err)
		sp.End(telemetry.Str("outcome", "fallthrough"))
		telFallthrough.With(RecoveryStandby.String()).Inc()
	}
	sp := rung(RecoveryDisk)
	e, pres, err := engine.RecoverFrom(nodeEngineOptions(opts, NodeDir(root, i)))
	if err != nil {
		sp.End(telemetry.Str("outcome", "failed"))
	} else {
		sp.End(telemetry.Str("outcome", "served"))
	}
	return e, pres, RecoveryDisk, note, err
}

// Recover performs whole-world recovery of a crashed cluster under root and
// resumes it from a consistent cut.
//
// The cut is C = the minimum over nodes of each node's durable horizon.
// In a barrier world the horizon is the tick the node's own recovery
// reaches. In a logged world it is the last tick the node's log holds whole
// (engine.LoggedEnd), or its manifest checkpoint when that is newer: Tick
// logs a tick to every node's log before any node sees it, so every applied
// tick is in every log and C bounds what any node can have applied. A node
// whose image is past C is a *TornError before any log changes; otherwise
// the records past C, a dispatch no node can have applied, are cut from
// every log (engine.CutLog), and the resumed coordinator dispatches those
// ticks again.
//
// Each partition then walks its own ladder, fastest first — warm-standby
// promotion when opts.Standbys[i] is attached, then the paper's disk
// restore+replay pipeline (engine.RecoverFrom), always present — all nodes
// concurrently; a standby that fails for one partition falls through for
// that partition only, and WorldRecovery records which rung served whom.
// The disk rung replays the node's log from its image, which rolls a node
// that lagged at the crash forward to C. A node that does not land exactly
// on C+1 is a *TornError, never a silent resume.
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

	// In a logged world the cut is known up front: the lowest horizon.
	var resume uint64
	if opts.logged() {
		horizon := make([]uint64, n) // no lower than the node's manifest cut
		for _, cut := range man.NodeCuts {
			horizon[cut.Node] = cut.AsOfTick + 1
		}
		images := make([]uint64, n)
		for i := range horizon {
			dir := NodeDir(root, i)
			if images[i], err = engine.ImageEnd(nodeEngineOptions(opts, dir)); err == nil {
				horizon[i], err = engine.LoggedEnd(dir, horizon[i])
			}
			if err != nil {
				return nil, nil, fmt.Errorf("cluster: node %d: %w", i, err)
			}
		}
		resume = slices.Min(horizon)
		// Refused before any log is cut, so that a lost log tail put back
		// from elsewhere lets the world recover after all.
		for i, end := range images {
			if end > resume {
				return nil, nil, &TornError{Node: i, Tick: end, Cut: resume}
			}
		}
		for i := range horizon {
			if err := engine.CutLog(NodeDir(root, i), resume); err != nil {
				return nil, nil, fmt.Errorf("cluster: node %d log: %w", i, err)
			}
		}
	}

	// Recover all partitions concurrently: each node walks its own ladder,
	// and the world is back when the slowest node is.
	wr := &WorldRecovery{
		PerNode:   make([]recovery.ParallelResult, n),
		Modes:     make([]RecoveryMode, n),
		Fallbacks: make([]string, n),
	}
	engines := make([]*engine.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i], wr.PerNode[i], wr.Modes[i], wr.Fallbacks[i], errs[i] = recoverNode(root, opts, i)
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

	// In a barrier world each node's horizon is where its own log took it.
	// Either way every node must land exactly on the cut.
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
	routing := &Routing{cur: man.Map, fromTick: man.MapFromTick}
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
	return c, wr, nil
}
