package engine

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/wal"
)

// Cluster tick input. Under the cluster (internal/cluster) a node's tick
// need not have one homogeneous update batch: it has the world's own
// input for that tick plus zero or more cross-partition messages that other
// nodes emitted at earlier ticks and scheduled for this one. Each piece is an
// Envelope. In a logged world the coordinator logs a tick's envelopes into
// the node's log when it dispatches the tick (LogTickEnvelopes), before any
// node sees it, and the node applies them later without logging them again
// (ApplyTickEnvelopes): the node's log is its inbox. Each message record
// carries its origin node and origin tick. That origin stamp is the message
// logging the cluster's recovery is built on: the destination's log proves
// exactly which messages were delivered and where they came from.

// Envelope is one source's contribution to a node's tick: Origin < 0 marks
// the world's own input for the tick; Origin >= 0 is a cross-partition
// message emitted by that node while it applied OriginTick.
type Envelope struct {
	Origin     int32
	OriginTick uint64
	Updates    []wal.Update
}

// headOrigin is the origin field of a logged tick's first record, the
// world's input: its origin tick field holds the number of records the
// tick has, so that a tick a crash tore is told from a whole one.
const headOrigin = 1<<32 - 1

// LogTickEnvelopes logs one dispatched tick's envelopes, world input first,
// then the messages: each as a run record (kind 5) of its batch in
// bitmap-word order, the world input's origin tick field holding the number
// of records (see tickRecords). The records go in under one hold of the
// log's lock, so no rotation splits the tick, and with SyncEveryTick they
// are synced. It runs on the dispatching goroutine, beside
// ApplyTickEnvelopes applying earlier ticks, so it keeps its own scratch;
// call it from one goroutine, once per tick, from NextTick on.
func (e *Engine) LogTickEnvelopes(tick uint64, envs []Envelope) error {
	if e.log == nil {
		return nil
	}
	if len(envs) == 0 {
		return fmt.Errorf("engine: tick %d: no world input", tick)
	}
	for k, env := range envs {
		if (k == 0) != (env.Origin < 0) {
			return fmt.Errorf("engine: tick %d: envelope %d of %d has origin %d; the world input goes first, once",
				tick, k, len(envs), env.Origin)
		}
	}
	if e.logOff == nil {
		e.logOff = make([]int32, len(e.off))
	}
	for len(e.logRecs) < len(envs) {
		e.logRecs = append(e.logRecs, nil)
	}
	recs := e.logRecs[:len(envs)]
	for k, env := range envs {
		origin, originTick := uint32(env.Origin), env.OriginTick
		if k == 0 {
			origin, originTick = headOrigin, uint64(len(envs))
		}
		e.logBucket = e.bucketBatch(e.logBucket[:0], env.Updates, e.logOff)
		recs[k] = wal.AppendMessageHeader(append(recs[k][:0], recMessageRuns), origin, originTick)
		recs[k] = wal.EncodeRuns(recs[k], e.logBucket)
	}
	if err := e.log.Append(tick, recs...); err != nil {
		return err
	}
	if e.opts.SyncEveryTick {
		return e.log.Sync()
	}
	return nil
}

// ApplyTickEnvelopes applies one tick that LogTickEnvelopes has logged:
// each envelope is bucketed, as ApplyTick buckets its batch, and applied in
// order. It goes through the one commit ordering with nothing to log and
// nothing to sync, and refuses a tick the log does not hold yet. Call it
// like ApplyTick — once per tick, from one goroutine.
func (e *Engine) ApplyTickEnvelopes(envs []Envelope) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	if e.log != nil {
		last, ok, err := e.log.LastTick()
		if err == nil && (!ok || last < e.tick) {
			err = fmt.Errorf("engine: tick %d applied before it was logged", e.tick)
		}
		if err != nil {
			return err
		}
	}
	return e.commit(false, nil, func() (int64, error) {
		var applied int64
		for _, env := range envs {
			e.bucket = e.bucketBatch(e.bucket[:0], env.Updates, e.off)
			applied += e.applyBucket(e.bucket)
		}
		return applied, nil
	})
}

// tickRecords reports whether body is a logged tick's head, the record
// LogTickEnvelopes writes first, and if so how many records the tick has.
func tickRecords(body []byte) (uint64, bool) {
	if len(body) == 0 || body[0] != recMessageRuns {
		return 0, false
	}
	origin, n, _, err := wal.SplitMessage(body[1:])
	return n, err == nil && origin == headOrigin && n > 0
}

// LoggedEnd returns one past the last tick the log of the engine directory
// dir holds whole, reading the ticks from tick from on, or from if it holds
// none: every tick there must open with its head (tickRecords), after any
// install records, and only the last may be short of its count — a crash
// tore it. Anything else is an error: the log was not written by
// LogTickEnvelopes, or is damaged.
func LoggedEnd(dir string, from uint64) (uint64, error) {
	r, err := wal.NewReader(filepath.Join(dir, "wal"), from)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	end := from
	var tick, left uint64 // the tick being read and its records still due
	for {
		t, body, err := r.Next()
		switch {
		case err == io.EOF:
			return end, nil
		case err != nil:
			return 0, err
		case t < from:
		case left > 0 && t == tick:
			if left--; left == 0 {
				end = tick + 1
			}
		case left > 0:
			return 0, fmt.Errorf("engine: log tick %d torn inside the log", tick)
		case len(body) > 0 && body[0] == recInstall:
			// The degrade anchor: logged at a tick before that tick's head,
			// and not one of its records.
		default:
			n, ok := tickRecords(body)
			if !ok {
				return 0, fmt.Errorf("engine: log tick %d does not open with its record count", t)
			}
			if tick, left = t, n-1; left == 0 {
				end = tick + 1
			}
		}
		r.Release(r.Records())
	}
}

// CutLog removes every record at or past tick end from the log of the
// engine directory dir, which no engine may hold open.
func CutLog(dir string, end uint64) error {
	return wal.Cut(filepath.Join(dir, "wal"), end)
}
