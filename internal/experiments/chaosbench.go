package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/replication"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The chaos benchmark drives the fault-injection layer (internal/chaos)
// through every degradation path the system claims to survive, one seeded
// schedule per cell of scenario × fault site × seed:
//
//   - "disk" — one backup family's device gets a seed-chosen write budget
//     (the power-cut shape: the crossing write is torn, then the medium is
//     dead). The engine must degrade to the surviving family, keep ticking
//     and checkpointing, and crash recovery with healthy devices must still
//     reconstruct the exact state;
//   - "replink" — the primary→standby stream is severed mid-frame at
//     seed-chosen byte budgets, session after session. The resilient pair
//     must reconnect with backoff and resume from the durable ack watermark,
//     and the promoted standby must hold the exact final state with no tick
//     lost or double-applied.
//
// Every fault decision is a pure function of (seed, site, op-index) — see
// the chaos package doc — so a failing cell is replayable from the two
// columns the report prints. Each cell ends in one of three outcomes:
//
//	survived — no injected fault actually fired; state byte-identical;
//	degraded — faults fired, the degradation path engaged, and the final
//	           state is still byte-identical to the never-faulted serial
//	           reference (the outcome this benchmark exists to prove);
//	failed   — an unexpected error, a lost tick, or state divergence.
//
// A failed cell fails the run in CI (see cmd/experiments): byte identity
// under injected faults is a correctness gate, not a statistic.

// ChaosCell is one (scenario, site, seed) schedule outcome.
type ChaosCell struct {
	Scenario string `json:"scenario"`
	Site     string `json:"site"`
	Seed     int64  `json:"seed"`
	// Outcome: "survived", "degraded" or "failed".
	Outcome string `json:"outcome"`
	// Faults is how many injected faults actually fired at the site.
	Faults int64 `json:"faults"`
	// Sessions counts connection attempts (replink cells; 0 elsewhere).
	Sessions int `json:"sessions,omitempty"`
	// Identical: final state ≡ the never-faulted serial reference.
	Identical bool   `json:"identical"`
	Detail    string `json:"detail,omitempty"`
}

// ChaosReport aggregates the schedule sweep.
type ChaosReport struct {
	Scenarios []string    `json:"scenarios"`
	Sites     []string    `json:"sites"`
	Seeds     []int64     `json:"seeds"`
	Ticks     int         `json:"ticks"`
	Updates   int         `json:"updates_per_tick"`
	Cells     []ChaosCell `json:"cells"`
}

// Table renders the cells.
func (r *ChaosReport) Table() *report.TextTable {
	t := report.NewTextTable()
	t.Header("scenario", "site", "seed", "outcome", "faults", "sessions", "identical", "detail")
	for _, c := range r.Cells {
		sess := "-"
		if c.Sessions > 0 {
			sess = fmt.Sprint(c.Sessions)
		}
		t.Row(c.Scenario, c.Site, fmt.Sprint(c.Seed), c.Outcome,
			fmt.Sprint(c.Faults), sess, fmt.Sprint(c.Identical), c.Detail)
	}
	return t
}

// Failed returns the cells that did not survive or degrade cleanly.
func (r *ChaosReport) Failed() []ChaosCell {
	var out []ChaosCell
	for _, c := range r.Cells {
		if c.Outcome == "failed" {
			out = append(out, c)
		}
	}
	return out
}

// Degraded counts cells where injected faults fired and the system held.
func (r *ChaosReport) Degraded() int {
	n := 0
	for _, c := range r.Cells {
		if c.Outcome == "degraded" {
			n++
		}
	}
	return n
}

// ChaosBenchOptions trims the schedule matrix; zero values mean defaults.
type ChaosBenchOptions struct {
	// Scenarios defaults to {flashcrowd, hotspot, migration}: the baseline
	// plus the two that move load around mid-run.
	Scenarios []string
	// Sites defaults to {disk, replink} — both fault planes.
	Sites []string
	// Seeds defaults to {1, 2, 3}: three independent schedules per
	// (scenario, site). 3×2×3 = 18 cells.
	Seeds []int64
	// Ticks defaults to 48 (quick) / 96 (full).
	Ticks int
	// UpdatesPerTick defaults to 512 — enough traffic to cross every byte
	// budget, small enough that 18 cells stay CI-sized.
	UpdatesPerTick int
	// Table overrides the world geometry (default chaosTable).
	Table *gamestate.Table
}

// chaosBenchDefaults fills in the zero fields.
func chaosBenchDefaults(s Scale, opts ChaosBenchOptions) ChaosBenchOptions {
	if len(opts.Scenarios) == 0 {
		opts.Scenarios = []string{"flashcrowd", "hotspot", "migration"}
	}
	if len(opts.Sites) == 0 {
		opts.Sites = []string{"disk", "replink"}
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []int64{1, 2, 3}
	}
	if opts.Ticks <= 0 {
		opts.Ticks = 48
		if s == Full {
			opts.Ticks = 96
		}
	}
	if opts.UpdatesPerTick <= 0 {
		opts.UpdatesPerTick = 512
	}
	return opts
}

// chaosTable is the default chaos world: 512 objects of 512 bytes (256 KB),
// small enough that every cell re-derives its reference in milliseconds.
func chaosTable() gamestate.Table {
	return gamestate.Table{Rows: 8192, Cols: 8, CellSize: 4, ObjSize: 512}
}

// RunChaosBench sweeps scenario × site × seed. Infrastructure errors (a bad
// option, a tempdir failure) return an error; injected-fault outcomes —
// including cells that fail their identity check — land in the report.
func RunChaosBench(s Scale, opts ChaosBenchOptions) (*ChaosReport, error) {
	opts = chaosBenchDefaults(s, opts)
	table := chaosTable()
	if opts.Table != nil {
		table = *opts.Table
	}
	rep := &ChaosReport{
		Scenarios: opts.Scenarios,
		Sites:     opts.Sites,
		Seeds:     opts.Seeds,
		Ticks:     opts.Ticks,
		Updates:   opts.UpdatesPerTick,
	}
	for _, name := range opts.Scenarios {
		for _, seed := range opts.Seeds {
			src, err := workload.New(name, workload.Config{
				Table:          table,
				UpdatesPerTick: opts.UpdatesPerTick,
				Ticks:          opts.Ticks,
				Skew:           DefaultSkew,
				Seed:           seed,
			})
			if err != nil {
				return nil, err
			}
			// The never-faulted ground truth, shared by every site at this
			// (scenario, seed).
			ref, err := scenarioReference(table, src, nil)
			if err != nil {
				return nil, err
			}
			for _, site := range opts.Sites {
				var cell ChaosCell
				switch site {
				case "disk":
					cell, err = chaosDiskCell(table, src, ref, seed)
				case "replink":
					cell, err = chaosReplinkCell(table, src, ref, seed)
				default:
					err = fmt.Errorf("chaosbench: unknown fault site %q (disk|replink)", site)
				}
				if err != nil {
					return nil, fmt.Errorf("chaosbench %s/%s/seed=%d: %w", name, site, seed, err)
				}
				cell.Scenario, cell.Site, cell.Seed = name, site, seed
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	return rep, nil
}

// chaosOutcome classifies a cell that hit no hard failure.
func chaosOutcome(faults int64, identical bool) string {
	switch {
	case !identical:
		return "failed"
	case faults > 0:
		return "degraded"
	default:
		return "survived"
	}
}

// chaosDiskCell kills one backup family mid-flush at a seed-chosen byte
// budget and proves the degrade contract end to end: the engine keeps
// ticking and checkpointing on the survivor, and recovery of the directory
// with healthy devices reconstructs the exact scenario state.
func chaosDiskCell(table gamestate.Table, src workload.Source, ref []byte, seed int64) (ChaosCell, error) {
	const site = "disk/a"
	cell := ChaosCell{}
	defer enableTelemetry()()
	faultsBefore, _ := telemetry.VecValue("chaos_injected_faults_total", site)
	dir, err := os.MkdirTemp("", "chaos-disk")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(dir)

	// The budget lands inside family A's first full image flush (the image
	// is table.StateBytes() long), so the family always dies mid-checkpoint;
	// where in the flush is the seed's choice of crash point.
	sb := int64(table.StateBytes())
	budget := sb/8 + int64(chaos.NewRand(seed, site).Intn(int(sb/2)))
	var dev *chaos.Device
	sick := engine.Options{
		Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate,
		DeviceFactory: func(path string) (disk.Device, error) {
			d, err := disk.OpenFile(path)
			if err != nil {
				return nil, err
			}
			if strings.HasSuffix(path, "backup-a.img") {
				dev = chaos.WrapDevice(d, seed, site, chaos.DeviceFaults{
					WriteBudget: budget, TornWrites: true,
				})
				return dev, nil
			}
			return d, nil
		},
	}
	e, err := engine.Open(sick)
	if err != nil {
		return cell, err
	}
	var cells []uint32
	var batch []wal.Update
	ticks := src.NumTicks()
	const ckptEvery = 8
	for t := 0; t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := e.ApplyTick(batch); err != nil {
			e.Close()
			cell.Outcome, cell.Detail = "failed", fmt.Sprintf("tick %d: %v", t, err)
			return cell, nil
		}
		if (t+1)%ckptEvery == 0 || t == ticks-1 {
			// The degrade contract: a checkpoint that loses a family must
			// still complete on the survivor, never error or wedge.
			if _, err := e.CheckpointNow(); err != nil {
				e.Close()
				cell.Outcome, cell.Detail = "failed", fmt.Sprintf("checkpoint after tick %d: %v", t, err)
				return cell, nil
			}
		}
	}
	degraded := e.CheckpointDegraded()
	// The cell's fault count comes from the telemetry registry — the same
	// chaos_injected_faults_total{site} series a live scrape would read —
	// cross-checked against the injector's own ledger. Scrape the degraded
	// gauge here too: the recovery engine below re-opens and resets it.
	faultsAfter, _ := telemetry.VecValue("chaos_injected_faults_total", site)
	cell.Faults = int64(faultsAfter - faultsBefore)
	if dev != nil && cell.Faults != dev.Injected() {
		e.Close()
		cell.Outcome = "failed"
		cell.Detail = fmt.Sprintf("telemetry counted %d injected faults at %s, injector counted %d",
			cell.Faults, site, dev.Injected())
		return cell, nil
	}
	gaugeDegraded, _ := telemetry.GaugeValue("engine_checkpoint_degraded")
	if err := e.Close(); err != nil {
		cell.Outcome, cell.Detail = "failed", fmt.Sprintf("close: %v", err)
		return cell, nil
	}

	// Crash-recover with healthy devices: the survivor image plus the
	// unpruned log must reconstruct the exact state.
	re, err := engine.Open(engine.Options{Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		cell.Outcome, cell.Detail = "failed", fmt.Sprintf("recovery: %v", err)
		return cell, nil
	}
	cell.Identical = re.NextTick() == uint64(ticks) && bytes.Equal(re.Store().Slab(), ref)
	if re.NextTick() != uint64(ticks) {
		cell.Detail = fmt.Sprintf("recovered to tick %d, want %d", re.NextTick(), ticks)
	}
	re.Close()
	if cell.Faults > 0 && !degraded {
		cell.Identical = false
		cell.Detail = "faults fired but the checkpointer never reported degraded"
	}
	cell.Outcome = chaosOutcome(cell.Faults, cell.Identical)
	// Verdict honesty: the outcome the report prints must agree with the
	// engine_checkpoint_degraded gauge a live scrape of the run would have
	// shown — a degraded cell with a zero gauge (or the reverse) means the
	// telemetry lied about the run it instrumented.
	if cell.Outcome != "failed" && (cell.Outcome == "degraded") != (gaugeDegraded != 0) {
		cell.Detail = fmt.Sprintf("outcome %q disagrees with engine_checkpoint_degraded=%d",
			cell.Outcome, gaugeDegraded)
		cell.Outcome = "failed"
		return cell, nil
	}
	if cell.Outcome == "degraded" && cell.Detail == "" {
		cell.Detail = fmt.Sprintf("family a dead after %d bytes; survivor carried recovery", budget)
	}
	return cell, nil
}

// chaosReplinkCell severs the primary→standby stream at seed-chosen byte
// budgets, one per session, and proves the resilient pair's contract: every
// cut is followed by a backoff reconnect that resumes from the durable ack
// watermark, and the promoted standby ends byte-identical with zero lost or
// repeated ticks.
func chaosReplinkCell(table gamestate.Table, src workload.Source, ref []byte, seed int64) (ChaosCell, error) {
	cell := ChaosCell{}
	pdir, err := os.MkdirTemp("", "chaos-repl-p")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "chaos-repl-s")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(sdir)

	p, err := engine.Open(engine.Options{Table: table, Dir: pdir, Mode: engine.ModeNone})
	if err != nil {
		return cell, err
	}
	defer p.Close()

	// Rendezvous dial: the shipper side manufactures a pipe, wraps its end
	// with the session's chaos substream, and hands the peer end to the
	// standby. Session 0's budget covers the bootstrap snapshot so the sever
	// lands in the live stream; later sessions cut after a few ticks each.
	rng := chaos.NewRand(seed, "replink")
	conns := make(chan net.Conn)
	quit := make(chan struct{})
	var connMu sync.Mutex
	var chaosConns []*chaos.Conn
	session := 0
	shipDial := func() (net.Conn, error) {
		limit := int64(16384 + rng.Intn(32768))
		if session == 0 {
			limit += int64(table.StateBytes()) + 8192
		}
		pc, sc := net.Pipe()
		wc := chaos.WrapConn(pc, seed, fmt.Sprintf("replink#%d", session), chaos.ConnFaults{
			SeverAfterBytes: limit,
		})
		session++
		connMu.Lock()
		chaosConns = append(chaosConns, wc)
		connMu.Unlock()
		select {
		case conns <- sc:
			return wc, nil
		case <-quit:
			pc.Close()
			sc.Close()
			return nil, errors.New("chaosbench: rendezvous closed")
		case <-time.After(30 * time.Second):
			pc.Close()
			sc.Close()
			return nil, errors.New("chaosbench: standby never redialed")
		}
	}
	sbDial := func() (net.Conn, error) {
		select {
		case c := <-conns:
			return c, nil
		case <-quit:
			return nil, errors.New("chaosbench: rendezvous closed")
		case <-time.After(30 * time.Second):
			return nil, errors.New("chaosbench: primary never redialed")
		}
	}
	fast := replication.ResilientOptions{Backoff: replication.Backoff{
		Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond,
	}}
	sb, err := replication.StartResilientStandby(engine.Options{
		Table: table, Dir: sdir, Mode: engine.ModeCopyOnUpdate,
	}, sbDial, fast)
	if err != nil {
		return cell, err
	}
	sh, err := replication.StartResilientShipper(p, shipDial, replication.StreamOptions{MaxLagTicks: 8}, fast)
	if err != nil {
		sb.Close()
		return cell, err
	}
	fail := func(detail string) (ChaosCell, error) {
		close(quit)
		sh.Stop() //nolint:errcheck
		sb.Close()
		cell.Outcome, cell.Detail = "failed", detail
		cell.Sessions = sh.Sessions()
		return cell, nil
	}
	select {
	case <-sb.Ready():
	case <-sb.Done():
		return fail(fmt.Sprintf("standby died during bootstrap: %v", sb.Err()))
	case <-time.After(60 * time.Second):
		return fail("standby never bootstrapped")
	}

	var cells []uint32
	var batch []wal.Update
	ticks := src.NumTicks()
	for t := 0; t < ticks; t++ {
		cells, batch = workload.TickUpdates(src, t, cells, batch)
		if err := p.ApplyTick(batch); err != nil {
			return fail(fmt.Sprintf("tick %d: %v", t, err))
		}
	}
	if err := sh.AwaitAck(uint64(ticks)-1, 120*time.Second); err != nil {
		return fail(fmt.Sprintf("final ack: %v", err))
	}
	close(quit)
	cell.Sessions = sh.Sessions()
	// Read the standby's counters while the last session is live: every
	// earlier session's end is counted by then, and whether the cut Stop
	// makes lands before Promote is a race the report must not depend on.
	st := sb.Stats()
	sh.Stop() //nolint:errcheck // the stream's death is the scenario
	promoted, err := sb.Promote()
	if err != nil {
		cell.Outcome, cell.Detail = "failed", fmt.Sprintf("promote: %v", err)
		return cell, nil
	}
	connMu.Lock()
	for _, wc := range chaosConns {
		cell.Faults += wc.Injected()
	}
	connMu.Unlock()
	cell.Identical = promoted.NextTick() == uint64(ticks) && bytes.Equal(promoted.Store().Slab(), ref)
	if promoted.NextTick() != uint64(ticks) {
		cell.Detail = fmt.Sprintf("promoted at tick %d, want %d", promoted.NextTick(), ticks)
	}
	promoted.Close()
	cell.Outcome = chaosOutcome(cell.Faults, cell.Identical)
	if cell.Outcome == "degraded" && cell.Detail == "" {
		cell.Detail = fmt.Sprintf("%d severs, %d reconnects, one bootstrap", cell.Faults, st.Reconnects)
	}
	return cell, nil
}
