package wal

import (
	"encoding/binary"
	"testing"
)

// FuzzDecodeMessage: the message decoder never panics, refuses an update
// count its payload cannot back before it sizes anything by it, and the
// (origin, origin tick, updates) of an accepted payload survive
// EncodeMessage → DecodeMessage.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(EncodeMessage(nil, 2, 41, []Update{{Cell: 12, Value: 0xdead}, {Cell: 3, Value: 1}}))
	f.Add(EncodeMessage(nil, 0, 0, nil))
	f.Add(EncodeMessage(nil, 1<<32-1, 1<<64-1, []Update{{Cell: 1<<32 - 1, Value: 7}}))
	f.Add([]byte{1, 2, 3})                                                      // shorter than the header
	f.Add(append(EncodeMessage(nil, 1, 2, nil)[:MessageHeaderLen], 0x80))       // truncated count
	f.Add(append(EncodeMessage(nil, 1, 2, nil)[:MessageHeaderLen], 0xff, 0x7f)) // count the payload cannot back
	f.Fuzz(func(t *testing.T, payload []byte) {
		origin, tick, updates, err := DecodeMessage(nil, payload)
		if cap(updates)*minUpdateLen > len(payload) {
			t.Fatalf("%d-byte payload sized a %d-update buffer", len(payload), cap(updates))
		}
		if len(payload) > MessageHeaderLen {
			body := payload[MessageHeaderLen:]
			if count, n := binary.Uvarint(body); n > 0 && count > uint64(len(body[n:])/minUpdateLen) && err == nil {
				t.Fatalf("accepted a count of %d in %d bytes", count, len(body[n:]))
			}
		}
		if err != nil {
			return
		}
		o2, t2, u2, err := DecodeMessage(nil, EncodeMessage(nil, origin, tick, updates))
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if o2 != origin || t2 != tick || len(u2) != len(updates) {
			t.Fatalf("round trip (%d, %d, %d updates) came back (%d, %d, %d updates)",
				origin, tick, len(updates), o2, t2, len(u2))
		}
		for i := range u2 {
			if u2[i] != updates[i] {
				t.Fatalf("update %d: %+v came back %+v", i, updates[i], u2[i])
			}
		}
	})
}
