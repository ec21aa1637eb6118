package wal

import (
	"encoding/binary"
	"fmt"
)

// Cross-partition message payloads. A cluster with a non-zero window
// (internal/cluster, Options.MaxSkew) lets partitions tick ahead of each other inside a fixed window, so a
// cross-partition action emitted by node i while applying its tick T cannot
// be folded into the destination's tick-T input — the destination may already
// be past T. Instead the action travels as a *message* scheduled for a future
// tick, and it is logged with its origin pinned on it: (origin node, origin
// tick, update batch). Recovery uses the origin tick to re-derive which
// messages were still in flight at the crash; replay treats the batch exactly
// like a tick's own updates. The header codec lives here, next to the batch
// codecs it prefixes.

// MessageHeaderLen is the length of the origin header (u32 node, u64 tick)
// in front of a message's update batch.
const MessageHeaderLen = 12

// AppendMessageHeader appends a message's origin header to buf; the batch,
// in either encoding, follows it.
func AppendMessageHeader(buf []byte, origin uint32, originTick uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, origin)
	return binary.LittleEndian.AppendUint64(buf, originTick)
}

// SplitMessage parses a message's origin header and returns the batch bytes
// behind it.
func SplitMessage(payload []byte) (origin uint32, originTick uint64, batch []byte, err error) {
	if len(payload) < MessageHeaderLen {
		return 0, 0, nil, fmt.Errorf("wal: message payload %d bytes, want >= %d", len(payload), MessageHeaderLen)
	}
	return binary.LittleEndian.Uint32(payload[0:]), binary.LittleEndian.Uint64(payload[4:]), payload[MessageHeaderLen:], nil
}

// DecodeMessage parses a varint message payload — the origin header, then
// an EncodeUpdates batch, as logs written before the run encoding hold
// them — appending the update batch to dst.
func DecodeMessage(dst []Update, payload []byte) (origin uint32, originTick uint64, updates []Update, err error) {
	origin, originTick, batch, err := SplitMessage(payload)
	if err != nil {
		return 0, 0, dst, err
	}
	updates, err = DecodeUpdates(dst, batch)
	return origin, originTick, updates, err
}
