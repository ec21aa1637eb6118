package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/engine"
)

// StandbyStats is a snapshot of a standby's progress counters.
type StandbyStats struct {
	// StartTick is the first streamed tick; the bootstrap snapshot covers
	// everything before it.
	StartTick uint64
	// SnapshotBytes is the bootstrap image size received.
	SnapshotBytes int64
	// TicksApplied counts ingested ticks; Applied is the high-water tick
	// applied (logged to the standby's own WAL and in its slab; synced
	// per the engine's SyncEveryTick setting, and always at promotion).
	TicksApplied int64
	Applied      uint64
	HasApplied   bool
	// Sessions counts connection attempts and Reconnects completed stream
	// sessions that ended retryably (both stay 0/1-ish for a plain
	// single-connection standby, and grow under StartResilientStandby).
	Sessions   int
	Reconnects int
}

// Standby mirrors a primary over a connection into its own engine
// directory: it receives the bootstrap snapshot, opens a standby engine,
// applies every streamed tick through the engine's own log and
// checkpointer, and acknowledges each applied tick back to the shipper.
//
// When the stream ends — the primary died, the network cut, or the
// shipper was stopped — the standby seals at the last *complete* tick
// frame (a partial frame never reaches the engine: frames are
// length-prefixed and CRC-checked). A plain standby (StartStandby) then
// closes Done; a resilient one (StartResilientStandby) redials with capped
// exponential backoff and resumes the stream from its durable watermark.
// Promote turns the warm engine into the new primary either way.
type Standby struct {
	opts engine.Options

	// dial is set only by StartResilientStandby; nil means one session on
	// the conn passed to StartStandby.
	dial  func() (net.Conn, error)
	ropts ResilientOptions

	mu       sync.Mutex
	conn     net.Conn // current connection (for shutdown); mu-guarded
	e        *engine.Engine
	stats    StandbyStats
	err      error // what ended (or aborted) the stream
	state    int   // standbyRunning → standbyPromoted/Closed
	stopping bool

	stop  chan struct{} // closed by Promote/Close to end the session loop
	ready chan struct{} // closed once the bootstrap snapshot is installed
	done  chan struct{} // closed when the stream has ended and the applier joined
}

const (
	standbyRunning = iota
	standbyPromoted
	standbyClosed
)

// StartStandby connects a new standby: it opens a warm engine in opts.Dir
// (which must be fresh) once the primary's bootstrap snapshot arrives, then
// mirrors the stream until it ends. It returns immediately; Ready is closed
// when the engine is warm, Done when the stream has ended. Errors surface
// via Err and Promote.
func StartStandby(opts engine.Options, conn net.Conn) (*Standby, error) {
	if err := opts.Table.Validate(); err != nil {
		return nil, err
	}
	sb := newStandby(opts, conn)
	go sb.run()
	return sb, nil
}

func newStandby(opts engine.Options, conn net.Conn) *Standby {
	return &Standby{
		conn:  conn,
		opts:  opts,
		stop:  make(chan struct{}),
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
}

func (sb *Standby) run() {
	defer close(sb.done)
	if sb.dial == nil {
		sb.mu.Lock()
		conn := sb.conn
		sb.stats.Sessions++
		sb.mu.Unlock()
		err := sb.serveConn(conn)
		sb.seal(err)
		conn.Close() //nolint:errcheck
		return
	}
	sb.runResilient()
}

// seal records the stream's end cause (first writer wins).
func (sb *Standby) seal(err error) {
	sb.mu.Lock()
	if sb.err == nil {
		sb.err = err // always non-nil: a stream is ended by some error
	}
	sb.mu.Unlock()
}

// serveConn runs one stream session on conn: handshake, resume negotiation,
// bootstrap if this standby has no engine yet, then the ingest/ack loop.
// Its return error is the session's end cause — io.EOF or a closed
// connection is the normal "primary died" seal. Errors that redialing
// cannot fix are wrapped in *fatalError.
func (sb *Standby) serveConn(conn net.Conn) error {
	c := NewConn(conn, MaxFrameSize)
	local := hello{
		objects:  uint64(sb.opts.Table.NumObjects()),
		objSize:  uint32(sb.opts.Table.ObjSize),
		cellSize: uint32(sb.opts.Table.CellSize),
	}
	err := acceptHandshake(c, local)
	if err != nil {
		return err // a geometry mismatch is fatal to the supervisor
	}

	// Resume negotiation. A fresh standby (no engine yet) asks for the
	// bootstrap snapshot with 0; a reconnecting one already holds everything
	// below its engine's NextTick (own WAL + checkpoints), so it skips the
	// snapshot and has the stream pick up exactly where it cut — the +1 bias
	// distinguishes "resume at tick 0" from "fresh".
	sb.mu.Lock()
	e := sb.e
	sb.mu.Unlock()
	var next, resume uint64
	if e != nil {
		next = e.NextTick()
		resume = next + 1
	}
	if err := c.SendU64(ftResume, resume); err != nil {
		return fmt.Errorf("replication: resume: %w", err)
	}
	if e == nil {
		// Open the engine from the snapshot (OpenStandby persists it as the
		// bootstrap checkpoint image, so the standby is recoverable before
		// the first streamed tick lands).
		var snap []byte
		if next, snap, err = recvSnapshot(c, uint64(sb.opts.Table.StateBytes())); err != nil {
			return err
		}
		if e, err = engine.OpenStandby(sb.opts, next, snap); err != nil {
			return &fatalError{err} // a broken local dir stays broken
		}
		sb.mu.Lock()
		sb.e = e
		sb.stats.StartTick = next
		sb.stats.SnapshotBytes = int64(len(snap))
		if next > 0 {
			sb.stats.Applied, sb.stats.HasApplied = next-1, true
		}
		sb.mu.Unlock()
		close(sb.ready)
	}
	// Seed the session's ack watermark with the durable state: the snapshot
	// (persisted as the first checkpoint image) or the engine's own log and
	// checkpoints cover every tick below next, so a caught-up standby is
	// observable even when nothing streams.
	if next > 0 {
		if err := c.SendU64(ftAck, next-1); err != nil {
			return err
		}
	}

	// The live stream: apply each complete tick frame through the engine
	// (its own WAL append + checkpointer bookkeeping), then acknowledge.
	// A read error at any byte position is the seal point — the partial
	// frame (if any) is discarded and every fully applied tick stands.
	for {
		body, err := c.ReadFrame()
		if err != nil {
			return err // stream end: sealed at the last complete tick
		}
		if len(body) < 9 || body[0] != ftTick {
			return fmt.Errorf("replication: unexpected frame type %d in stream", body[0])
		}
		tick := binary.LittleEndian.Uint64(body[1:])
		if err := e.IngestReplicated(tick, body[9:]); err != nil {
			// A gap here means the wire lost a frame (e.g. an injected
			// drop): retryable — the next session resumes at the engine's
			// tick and closes the gap from the primary's retained log.
			return err
		}
		sb.mu.Lock()
		sb.stats.TicksApplied++
		sb.stats.Applied, sb.stats.HasApplied = tick, true
		sb.mu.Unlock()
		if err := c.SendU64(ftAck, tick); err != nil {
			return err
		}
	}
}

// shutdownStream ends the session loop: the stop channel halts redialing
// and the current connection is cut so a blocked read returns.
func (sb *Standby) shutdownStream() {
	sb.mu.Lock()
	if !sb.stopping {
		sb.stopping = true
		close(sb.stop)
	}
	conn := sb.conn
	sb.mu.Unlock()
	if conn != nil {
		conn.Close() //nolint:errcheck // cut the stream; idempotent
	}
}

// Ready is closed once the bootstrap snapshot is installed and the engine
// is warm (streamed ticks may already be applying).
func (sb *Standby) Ready() <-chan struct{} { return sb.ready }

// Done is closed when the stream has ended — however it ended — and the
// applier goroutine has sealed the engine at the last complete tick. A
// resilient standby closes Done only when it stops retrying (a fatal error,
// or Promote/Close).
func (sb *Standby) Done() <-chan struct{} { return sb.done }

// Err returns the cause of the stream end (io.EOF / closed-connection
// errors are the normal primary-death seal), or nil while streaming.
func (sb *Standby) Err() error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.err
}

// Stats returns a snapshot of the standby's progress counters.
func (sb *Standby) Stats() StandbyStats {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.stats
}

// Promote fails the standby over: it cuts the stream if it is still alive,
// waits for the applier to seal at the last complete tick, and promotes the
// warm engine to a normal primary (ingested ticks synced durable, ApplyTick
// enabled). The caller owns the returned engine — including closing it.
// Promote is the warm path whose wall time the recoverytime experiment
// reports next to cold checkpoint recovery.
func (sb *Standby) Promote() (*engine.Engine, error) {
	sb.shutdownStream()
	<-sb.done
	sb.mu.Lock()
	defer sb.mu.Unlock()
	switch sb.state {
	case standbyPromoted:
		return nil, errors.New("replication: standby already promoted")
	case standbyClosed:
		return nil, errors.New("replication: standby closed")
	}
	if sb.e == nil {
		return nil, fmt.Errorf("replication: standby never bootstrapped: %w", sb.err)
	}
	if err := sb.e.Promote(); err != nil {
		return nil, err
	}
	sb.state = standbyPromoted
	return sb.e, nil
}

// Close abandons the standby without promoting: the stream is cut, the
// applier joined, and the warm engine discarded. A promoted standby's
// engine is the caller's; Close then only tidies the session.
func (sb *Standby) Close() error {
	sb.shutdownStream()
	<-sb.done
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.state == standbyRunning {
		sb.state = standbyClosed
		if sb.e != nil {
			return sb.e.Close()
		}
	}
	return nil
}
