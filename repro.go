// Package repro is a reproduction of "An Evaluation of Checkpoint Recovery
// for Massively Multiplayer Online Games" (Vaz Salles, Cao, Sowell, Demers,
// Gehrke, Koch, White — VLDB 2009) as a reusable Go library.
//
// It has two halves, mirroring the paper:
//
// The simulator (Simulate, SimulateAll) evaluates six consistent
// checkpointing algorithms for main-memory game state — Naive-Snapshot,
// Dribble-and-Copy-on-Update, Atomic-Copy-Dirty-Objects, Partial-Redo,
// Copy-on-Update and Copy-on-Update-Partial-Redo — under the cost model of
// the paper's Section 4.2, driven by synthetic Zipfian update traces or by
// traces recorded from the bundled Knights-and-Archers prototype game
// server. Use it the way the paper does: to pick a recovery strategy for a
// game design before building it.
//
// The engine (OpenEngine) is a real implementation of the two methods the
// paper validates and recommends — Naive-Snapshot for extreme update rates
// and Copy-on-Update for everything else — with actual memory copies, a
// double-backup on disk, a tick-granular logical log, and crash recovery
// (restore newest complete image + replay the log). Embed it in a
// simulation-loop server to make per-tick state durable without ARIES-style
// physical logging.
package repro

import (
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/game"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/replication"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Method identifies one of the six checkpoint recovery algorithms (Table 1).
type Method = checkpoint.Method

// The six algorithms, in the paper's presentation order.
const (
	NaiveSnapshot           = checkpoint.NaiveSnapshot
	DribbleCopyOnUpdate     = checkpoint.DribbleCopyOnUpdate
	AtomicCopyDirtyObjects  = checkpoint.AtomicCopyDirtyObjects
	PartialRedo             = checkpoint.PartialRedo
	CopyOnUpdate            = checkpoint.CopyOnUpdate
	CopyOnUpdatePartialRedo = checkpoint.CopyOnUpdatePartialRedo
)

// Methods returns all six algorithms.
func Methods() []Method { return checkpoint.Methods() }

// Params is the hardware/game cost model of Table 3.
type Params = costmodel.Params

// DefaultParams returns the paper's measured Table 3 values.
func DefaultParams() Params { return costmodel.Default() }

// Table describes game-state geometry: rows of game objects, columns of
// attributes, packed into fixed-size atomic objects (disk sectors).
type Table = gamestate.Table

// DefaultTable returns the synthetic-workload geometry of Table 4 (one
// million rows of ten 4-byte cells; 512-byte atomic objects).
func DefaultTable() Table { return gamestate.Default() }

// SimConfig configures a simulation run.
type SimConfig = checkpoint.Config

// DefaultSimConfig returns the paper's default simulation setting.
func DefaultSimConfig() SimConfig { return checkpoint.DefaultConfig() }

// SimResult aggregates a simulation run: per-tick overheads, checkpoint
// statistics, and the Section 4.2 recovery estimate.
type SimResult = checkpoint.Result

// TraceSource supplies the cell updates of each game tick.
type TraceSource = trace.Source

// ZipfianTraceConfig configures a synthetic Table 4 trace.
type ZipfianTraceConfig = trace.ZipfianConfig

// NewZipfianTrace builds the lazy, deterministic synthetic trace of Section
// 4.4: rows and columns drawn independently from a Zipf distribution.
func NewZipfianTrace(cfg ZipfianTraceConfig) (TraceSource, error) {
	return trace.NewZipfian(cfg)
}

// DefaultZipfianTraceConfig returns Table 4's bold defaults (10M cells, 1000
// ticks, 64,000 updates/tick, skew 0.8).
func DefaultZipfianTraceConfig() ZipfianTraceConfig { return trace.DefaultZipfianConfig() }

// Simulate drives one method over a trace.
func Simulate(m Method, cfg SimConfig, src TraceSource) (*SimResult, error) {
	return checkpoint.Run(m, cfg, src)
}

// SimulateAll drives several methods over the same trace in one pass, so
// every method sees identical workloads.
func SimulateAll(methods []Method, cfg SimConfig, src TraceSource) ([]*SimResult, error) {
	return checkpoint.RunAll(methods, cfg, src)
}

// GameConfig configures the Knights and Archers prototype game server.
type GameConfig = game.Config

// GameStats reports Table 5-style trace characteristics.
type GameStats = game.Stats

// DefaultGameConfig returns the Table 5 battle (400,128 units, 10% active).
func DefaultGameConfig() GameConfig { return game.DefaultConfig() }

// Game is a running Knights and Archers battle.
type Game = game.Game

// NewGame deploys a battle.
func NewGame(cfg GameConfig) (*Game, error) { return game.New(cfg) }

// GenerateGameTrace runs a battle and records its update trace (the paper's
// instrumented prototype game server).
func GenerateGameTrace(cfg GameConfig, ticks int) (TraceSource, GameStats, error) {
	return game.GenerateTrace(cfg, ticks)
}

// Update is one logged cell write applied through the engine.
type Update = wal.Update

// EngineMode selects the engine's recovery method.
type EngineMode = engine.Mode

// Engine modes: the two methods the paper validates (Section 6), the
// eager-dirty middle ground, and a no-checkpoint baseline for overhead
// measurement.
const (
	ModeNone          = engine.ModeNone
	ModeNaiveSnapshot = engine.ModeNaiveSnapshot
	ModeCopyOnUpdate  = engine.ModeCopyOnUpdate
	ModeAtomicCopy    = engine.ModeAtomicCopy
	ModeDribble       = engine.ModeDribble
)

// EngineOptions configures a durable engine.
type EngineOptions = engine.Options

// Engine is the real checkpointing store: in-memory slab, logical log,
// asynchronous double-backup checkpointer, crash recovery on Open.
type Engine = engine.Engine

// EngineStats aggregates engine activity.
type EngineStats = engine.Stats

// CheckpointInfo describes one completed engine checkpoint.
type CheckpointInfo = engine.CheckpointInfo

// RecoveryResult describes the recovery performed by OpenEngine.
type RecoveryResult = recovery.Result

// ParallelRecoveryResult is a RecoveryResult plus the pipeline's per-shard
// and per-stage timing breakdown.
type ParallelRecoveryResult = recovery.ParallelResult

// OpenEngine creates or reopens a durable engine. Reopening a directory
// that holds a previous incarnation's state performs crash recovery before
// returning.
func OpenEngine(opts EngineOptions) (*Engine, error) { return engine.Open(opts) }

// RecoverEngine is OpenEngine through the sharded parallel recovery
// pipeline: per-shard vectored restore overlapped with per-shard log
// replay, gated by per-shard restore watermarks.
func RecoverEngine(opts EngineOptions) (*Engine, ParallelRecoveryResult, error) {
	return engine.RecoverFrom(opts)
}

// Shipper streams a primary engine to one warm standby: a bootstrap
// checkpoint snapshot, then live tick records tail-followed from the
// engine's logical log, with a bounded number of in-flight ticks.
type Shipper = replication.Shipper

// ShipperOptions configures a primary-side shipper (replay-lag budget).
type ShipperOptions = replication.StreamOptions

// Standby mirrors a primary into its own engine directory and can be
// promoted to primary when the stream dies.
type Standby = replication.Standby

// StartPrimary attaches a live WAL shipper to a running engine, streaming
// a bootstrap snapshot and then every committed tick to the standby on
// conn. Stop the shipper before closing the engine.
func StartPrimary(e *Engine, conn net.Conn, opts ShipperOptions) (*Shipper, error) {
	return replication.StartShipper(e, conn, opts)
}

// StartStandby opens a warm standby in opts.Dir (which must be fresh),
// bootstrapped and then continuously fed from the primary on the other end
// of conn. When the primary dies, Promote seals the stream at the last
// complete tick and returns the engine, byte-identical to what crash
// recovery of the primary would have produced.
func StartStandby(opts EngineOptions, conn net.Conn) (*Standby, error) {
	return replication.StartStandby(opts, conn)
}

// Backoff is a capped exponential delay sequence for reconnect loops.
type Backoff = replication.Backoff

// ResilientOptions tunes a reconnecting replication supervisor.
type ResilientOptions = replication.ResilientOptions

// ResilientShipper keeps a primary streaming to a reconnecting standby
// across link failures, retaining unacknowledged log records in between.
type ResilientShipper = replication.ResilientShipper

// StartResilientPrimary attaches a reconnecting shipper: each session is a
// plain shipper, and the primary's log retains everything above the
// standby's acknowledged watermark so a cut stream resumes without a
// re-bootstrap. dial is called once per session attempt.
func StartResilientPrimary(e *Engine, dial func() (net.Conn, error), opts ShipperOptions, ropts ResilientOptions) (*ResilientShipper, error) {
	return replication.StartResilientShipper(e, dial, opts, ropts)
}

// StartResilientStandby opens a standby that redials the primary with
// capped exponential backoff whenever the stream cuts, resuming from its
// engine's durable watermark with no lost or repeated ticks.
func StartResilientStandby(opts EngineOptions, dial func() (net.Conn, error), ropts ResilientOptions) (*Standby, error) {
	return replication.StartResilientStandby(opts, dial, ropts)
}

// NetTimeoutError is the typed error every bounded network wait below
// surfaces on deadline; it unwraps to the underlying net error.
type NetTimeoutError = replication.NetTimeoutError

// DialTimeout connects to addr within timeout (<=0 waits forever); a
// timeout surfaces as a typed *NetTimeoutError.
func DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	return replication.Dial(addr, timeout)
}

// AcceptWithin accepts one connection within timeout (<=0 waits forever);
// a timeout surfaces as a typed *NetTimeoutError.
func AcceptWithin(ln net.Listener, timeout time.Duration) (net.Conn, error) {
	return replication.AcceptWithin(ln, timeout)
}

// NewIdleConn bounds every read on conn with a rolling deadline, turning a
// silently dead peer into a typed *NetTimeoutError instead of a hang.
func NewIdleConn(conn net.Conn, idle time.Duration) net.Conn {
	return replication.NewIdleConn(conn, idle)
}
