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
// like a tick's own updates. The encoding lives here, next to the update
// batch codec it wraps, so the engine's record framing and the cluster's
// message store agree on the bytes byte-for-byte.

// MessageHeaderLen is the length of the origin header (u32 node, u64 tick)
// in front of a message's update batch.
const MessageHeaderLen = 12

// EncodeMessage appends the message encoding to buf and returns it: the
// origin node, the origin tick, then the update batch in EncodeUpdates form.
func EncodeMessage(buf []byte, origin uint32, originTick uint64, updates []Update) []byte {
	var hdr [MessageHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], origin)
	binary.LittleEndian.PutUint64(hdr[4:], originTick)
	buf = append(buf, hdr[:]...)
	return EncodeUpdates(buf, updates)
}

// DecodeMessage parses a payload encoded by EncodeMessage, appending the
// update batch to dst.
func DecodeMessage(dst []Update, payload []byte) (origin uint32, originTick uint64, updates []Update, err error) {
	if len(payload) < MessageHeaderLen {
		return 0, 0, dst, fmt.Errorf("wal: message payload %d bytes, want >= %d", len(payload), MessageHeaderLen)
	}
	origin = binary.LittleEndian.Uint32(payload[0:])
	originTick = binary.LittleEndian.Uint64(payload[4:])
	updates, err = DecodeUpdates(dst, payload[MessageHeaderLen:])
	return origin, originTick, updates, err
}
