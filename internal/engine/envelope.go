package engine

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Cluster tick input. Under the cluster (internal/cluster) a node's tick
// need not have one homogeneous update batch: it has the world's own
// input for that tick plus zero or more cross-partition messages that other
// nodes emitted at earlier ticks and scheduled for this one. Each piece is an
// Envelope, and ApplyTickEnvelopes logs one record per envelope — the world
// input as an update record (byte-identical to ApplyTick's for the same
// batch, so a world without messages writes the same log ApplyTick would)
// and each message as a message record carrying its origin node and origin
// tick. That origin stamp is the message logging the cluster's recovery is
// built on: the destination's log proves exactly which messages were
// delivered and where they came from.

// Envelope is one source's contribution to a node's tick: Origin < 0 marks
// the world's own input for the tick; Origin >= 0 is a cross-partition
// message emitted by that node while it applied OriginTick.
type Envelope struct {
	Origin     int32
	OriginTick uint64
	Updates    []wal.Update
}

// EncodeEnvelopeRecord appends the record body the cluster's inbox holds for
// env — kind tag plus payload, the batch varint-encoded in arrival order —
// and returns the extended buffer. The cluster mirrors each dispatched
// envelope into the destination's inbox before the node applies it. The
// node's own log holds the same envelope word-ordered as runs, so the two
// agree record for record, not byte for byte: recovery's merge compares how
// many records each holds at a tick, and replay reads both kinds.
func EncodeEnvelopeRecord(buf []byte, env Envelope) []byte {
	if env.Origin < 0 {
		buf = append(buf, recUpdates)
		return wal.EncodeUpdates(buf, env.Updates)
	}
	buf = append(buf, recMessage)
	return wal.EncodeMessage(buf, uint32(env.Origin), env.OriginTick, env.Updates)
}

// DecodeEnvelopeRecord parses an update or message record body of either
// encoding — an inbox record or an engine log record (an update record
// decodes with Origin -1 and OriginTick 0: the world's input carries no
// origin stamp; its tick is the record's own tick). Other record kinds are
// an error: envelopes are the only records an inbox holds.
func DecodeEnvelopeRecord(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, errors.New("engine: empty envelope record")
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case recUpdates:
		upds, err := wal.DecodeUpdates(nil, payload)
		return Envelope{Origin: -1, Updates: upds}, err
	case recUpdateRuns:
		upds, err := wal.DecodeRuns(nil, payload)
		return Envelope{Origin: -1, Updates: upds}, err
	case recMessage:
		origin, originTick, upds, err := wal.DecodeMessage(nil, payload)
		return Envelope{Origin: int32(origin), OriginTick: originTick, Updates: upds}, err
	case recMessageRuns:
		origin, originTick, batch, err := wal.SplitMessage(payload)
		if err != nil {
			return Envelope{}, err
		}
		upds, err := wal.DecodeRuns(nil, batch)
		return Envelope{Origin: int32(origin), OriginTick: originTick, Updates: upds}, err
	default:
		return Envelope{}, fmt.Errorf("engine: record kind %d is not an envelope", kind)
	}
}

// ApplyTickEnvelopes applies one tick given as a list of envelopes: each
// envelope is bucketed once, as ApplyTick buckets its batch, every bucket is
// logged (in order — replay order is log order), then applied in the same
// order. Call it like ApplyTick — once per tick, from one goroutine.
func (e *Engine) ApplyTickEnvelopes(envs []Envelope) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.bucket, e.bucketEnds = e.bucket[:0], e.bucketEnds[:0]
	for _, env := range envs {
		e.bucket = e.bucketBatch(e.bucket, env.Updates)
		e.bucketEnds = append(e.bucketEnds, len(e.bucket))
	}
	seg := func(i int) []wal.Update {
		if i == 0 {
			return e.bucket[:e.bucketEnds[0]]
		}
		return e.bucket[e.bucketEnds[i-1]:e.bucketEnds[i]]
	}
	return e.commit(false, len(envs),
		func(i int) []byte {
			e.encBuf = appendRunRecord(e.encBuf[:0], envs[i].Origin, envs[i].OriginTick, seg(i))
			return e.encBuf
		},
		func() (int64, error) {
			var applied int64
			for i := range envs {
				applied += e.applyBucket(seg(i))
			}
			return applied, nil
		})
}
