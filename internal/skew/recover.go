package skew

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// ErrNotSkew is returned by Recover when the manifest under root was written
// by the lock-step barrier cluster; recover it with cluster.Recover, whose
// torn-world refusal is the right check for that discipline.
var ErrNotSkew = errors.New("skew: manifest was written by the barrier cluster; use cluster.Recover")

// TornError reports a node whose recovered tick disagrees with the
// reconstructed cut: its local WAL holds ticks the logged-message store has
// lost (a hard kill without SyncEveryTick can drop an inbox tail), or an
// inbox claims ticks some node never durably reached. Either way the inbox
// logs no longer bound the world and no consistent cut exists, so recovery
// refuses rather than resume a torn world — the skew discipline's analogue
// of the barrier cluster's torn-world error.
type TornError struct {
	Node int    // the node that disagrees
	Tick uint64 // the tick its recovery reached (its engine NextTick)
	Cut  uint64 // the reconstructed cut's resume tick (C+1)
}

// Error renders the disagreement: which node, where it landed, where the
// reconstructed cut says the world resumes.
func (e *TornError) Error() string {
	return fmt.Sprintf("skew: recovered world is torn: node %d at tick %d, reconstructed cut resumes at %d",
		e.Node, e.Tick, e.Cut)
}

// WorldRecovery is the outcome of bounded-skew whole-world recovery: each
// node's pipeline breakdown plus the reconstructed cut. The cluster-level
// wall time is the slowest node's recovery — nodes recover concurrently,
// each from its own staggered checkpoint.
type WorldRecovery struct {
	// PerNode holds each node's parallel-pipeline breakdown.
	PerNode []recovery.ParallelResult
	// Wall is start → last node recovered.
	Wall time.Duration
	// Cut is the reconstructed consistent cut C: the highest tick present in
	// every node's inbox, hence the highest tick every partition can replay
	// to. The world resumes at C+1.
	Cut uint64
	// WorldTick is the tick the world resumed at (C+1; 0 for a world that
	// crashed before any tick was dispatched).
	WorldTick uint64
	// RolledForward counts, per node, the ticks replayed out of the inbox
	// store past the node's own local WAL — the roll-forward that replaces
	// the barrier world's "all nodes crashed at the same tick" assumption.
	RolledForward []uint64
}

// cappedSource adapts an inbox reader into a recovery.RecordSource that ends
// at the cut: records with tick > cap are unread, as if the log ended there.
type cappedSource struct {
	r   *wal.Reader
	cap uint64
}

func (s *cappedSource) Next() (uint64, []byte, bool, error) {
	if s.r == nil {
		return 0, nil, false, nil
	}
	tick, payload, err := s.r.Next()
	if err == io.EOF || (err == nil && tick > s.cap) {
		s.r.Close()
		s.r = nil
		return 0, nil, false, nil
	}
	if err != nil {
		s.r.Close()
		s.r = nil
		return 0, nil, false, err
	}
	return tick, payload, true, nil
}

// inboxLastTick full-scans one inbox for its final tick. wal.Open's cached
// lastTick covers only the final segment, which rotation can leave empty, so
// cut reconstruction must scan; the inboxes are pruned to roughly a window's
// worth of ticks, so the scan is short.
func inboxLastTick(dir string) (last uint64, any bool, err error) {
	r, err := wal.NewReader(dir, 0)
	if err != nil {
		return 0, false, err
	}
	defer r.Close()
	for {
		tick, _, err := r.Next()
		if err == io.EOF {
			return last, any, nil
		}
		if err != nil {
			return 0, false, err
		}
		last, any = tick, true
	}
}

// rebuildInbox rewrites an inbox to hold only records with tick <= cut.
// Stale ticks past the cut are dispatch work the crash rolled back; the
// coordinator will re-dispatch those ticks (identically — the workload and
// Emit are pure), and leaving the old records in place would both break the
// log's non-decreasing append order and replay the ticks twice on the next
// recovery.
func rebuildInbox(dir string, cut uint64) error {
	tmp := dir + ".rebuild"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	out, err := wal.Open(tmp)
	if err != nil {
		return err
	}
	r, err := wal.NewReader(dir, 0)
	if err != nil {
		out.Close()
		return err
	}
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			out.Close()
			return err
		}
		if tick > cut {
			continue
		}
		if err := out.Append(tick, payload); err != nil {
			r.Close()
			out.Close()
			return err
		}
	}
	r.Close()
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// Recover reconstructs a consistent cut for a crashed bounded-skew world
// under root and resumes the cluster from it.
//
// The cut is C = the highest tick present in every node's inbox: Tick logs a
// tick to all inboxes before any node sees it, so every applied tick is in
// every inbox and C bounds what any node can have applied. Each node then
// recovers concurrently through the standard restore+replay pipeline with
// its inbox as the tail — its own checkpoint image, its own WAL, then the
// logged inbound envelopes up to C replayed past wherever its WAL ended
// (engine.RecoverWithTail, which also heals the WAL so the directory is
// self-sufficient). A node that cannot land exactly on C+1 means the inbox
// logs no longer bound the world; that is a *TornError, never a silent
// resume.
//
// Messages still inside the delivery window at the crash are not recovered
// from any log — they are regenerated by re-running opts.Emit (pure by
// contract) for every origin tick T in [C-MaxSkew, C]: a message emitted at
// T is delivered at T+MaxSkew+1, so exactly the emissions of those ticks are
// still undelivered at C, and emissions of rolled-back ticks (> C) recur
// when the ticks are re-applied. opts must carry the same Emit (and world
// geometry) the crashed world ran with; MaxSkew is taken from the manifest,
// and a conflicting opts.MaxSkew is an error.
func Recover(root string, opts Options) (*Cluster, *WorldRecovery, error) {
	man, err := cluster.ReadManifest(root)
	if err != nil {
		return nil, nil, err
	}
	if man.Coordination != cluster.CoordinationSkew {
		return nil, nil, ErrNotSkew
	}
	if opts.Table != (gamestate.Table{}) && opts.Table != man.Table {
		return nil, nil, fmt.Errorf("skew: recover geometry %v does not match manifest %v", opts.Table, man.Table)
	}
	opts.Table = man.Table
	opts.Dir = root
	if opts.Nodes != 0 && cluster.Uniform(man.Table.NumObjects(), opts.Nodes).NumNodes != man.Map.NumNodes {
		return nil, nil, fmt.Errorf("skew: recover with %d nodes, manifest has %d", opts.Nodes, man.Map.NumNodes)
	}
	if opts.MaxSkew != 0 && opts.MaxSkew != man.MaxSkew {
		return nil, nil, fmt.Errorf("skew: recover with MaxSkew %d, manifest has %d", opts.MaxSkew, man.MaxSkew)
	}
	opts.MaxSkew = man.MaxSkew
	n := man.Map.NumNodes

	// Reconstruct the cut: C = min over nodes of each node's durable horizon
	// — the last tick in its inbox, or its manifest checkpoint when that is
	// newer (a cut prunes the inbox ticks the image covers, possibly all of
	// them). A node with neither inbox records nor a cut defines no horizon;
	// if any other node does, an inbox has been lost and the reconstruction
	// falls to tick 0, which the post-recovery consistency check reports as
	// a torn world.
	cutOf := make(map[int]uint64, len(man.NodeCuts))
	for _, nc := range man.NodeCuts {
		cutOf[nc.Node] = nc.AsOfTick
	}
	var cut uint64
	defined := 0
	for i := 0; i < n; i++ {
		last, any, err := inboxLastTick(inboxDir(root, i))
		if err != nil {
			return nil, nil, fmt.Errorf("skew: node %d inbox: %w", i, err)
		}
		if asof, ok := cutOf[i]; ok && (!any || asof > last) {
			last, any = asof, true
		}
		if !any {
			continue
		}
		if defined == 0 || last < cut {
			cut = last
		}
		defined++
	}
	haveCut := defined == n
	if !haveCut {
		cut = 0
	}
	resume := uint64(0)
	if haveCut {
		resume = cut + 1
	}

	// Roll every node forward to the cut, concurrently.
	wr := &WorldRecovery{
		PerNode:       make([]recovery.ParallelResult, n),
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
			dir := inboxDir(root, i)
			tail := func() (recovery.RecordSource, error) {
				if !haveCut {
					return &cappedSource{}, nil
				}
				r, err := wal.NewReader(dir, 0)
				if err != nil {
					return nil, err
				}
				return &cappedSource{r: r, cap: cut}, nil
			}
			engines[i], wr.PerNode[i], errs[i] = engine.RecoverWithTail(
				nodeEngineOptions(opts, cluster.NodeDir(root, i)), tail)
		}(i)
	}
	wg.Wait()
	wr.Wall = time.Since(start)
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
			return nil, nil, fmt.Errorf("skew: node %d recovery: %w", i, err)
		}
	}

	// Every node must land exactly on the cut, or the inbox logs no longer
	// bound the world and the reconstruction is unsound.
	for i, e := range engines {
		if e.NextTick() != resume {
			tick := e.NextTick()
			closeAll()
			return nil, wr, &TornError{Node: i, Tick: tick, Cut: resume}
		}
		if haveCut && cut >= wr.PerNode[i].LastLogTick {
			wr.RolledForward[i] = cut - wr.PerNode[i].LastLogTick
		}
	}
	wr.Cut = cut
	wr.WorldTick = resume

	// Drop inbox records past the cut: those ticks rolled back and will be
	// re-dispatched (identically) by the resumed coordinator.
	for i := 0; i < n; i++ {
		dir := inboxDir(root, i)
		last, any, err := inboxLastTick(dir)
		if err != nil {
			closeAll()
			return nil, wr, fmt.Errorf("skew: node %d inbox: %w", i, err)
		}
		if any && last > cut {
			if err := rebuildInbox(dir, cut); err != nil {
				closeAll()
				return nil, wr, fmt.Errorf("skew: node %d inbox rebuild: %w", i, err)
			}
		}
	}

	c, err := build(opts, man.Map, resume, man.NodeCuts, func(i int, dir string) (*engine.Engine, error) {
		return engines[i], nil
	})
	if err != nil {
		closeAll()
		return nil, nil, err
	}

	// Regenerate the in-flight messages. Emissions of ticks [C-W, C] have
	// delivery ticks in [C+1, C+W+1] — exactly the window the crash emptied.
	if c.opts.Emit != nil && haveCut {
		lo := uint64(0)
		if cut >= c.window {
			lo = cut - c.window
		}
		for i := 0; i < c.m.NumNodes; i++ {
			for t := lo; t <= cut; t++ {
				if err := c.emit(i, t); err != nil {
					c.Close()
					return nil, wr, err
				}
			}
		}
	}
	return c, wr, nil
}
