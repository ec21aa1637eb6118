package engine

import (
	"bytes"
	"testing"

	"repro/internal/wal"
)

// FuzzRecordBatch: the decoder recovery runs on every update and message
// record — recordBatch, then wal.ParseRuns over its batch, as replayer.index
// does — never panics, accepts only kinds 4 and 5, walks no more updates
// than its bytes back (six bytes each), and an accepted record re-encodes
// to itself.
func FuzzRecordBatch(f *testing.F) {
	upds := []wal.Update{{Cell: 12, Value: 0xdead}, {Cell: 70_000, Value: 1}, {Cell: 13, Value: 2}}
	f.Add(runRecord(Envelope{Origin: -1, Updates: upds}))
	f.Add(runRecord(Envelope{Origin: 2, OriginTick: 41, Updates: upds}))
	f.Add(runRecord(Envelope{Origin: -1}))
	// A logged tick's head: the origin field headOrigin, the origin tick
	// field the number of records the tick holds (tickRecords).
	f.Add(wal.EncodeRuns(wal.AppendMessageHeader([]byte{recMessageRuns}, headOrigin, 3), upds))
	f.Add([]byte{})
	f.Add([]byte{recMessageRuns, 1, 2, 3})                                         // shorter than the message header
	f.Add([]byte{recUpdateRuns, 0xff, 0x7f})                                       // a count the batch cannot back
	f.Add(wal.EncodeUpdates([]byte{0}, upds))                                      // the retired varint update kind
	f.Add(wal.EncodeUpdates(wal.AppendMessageHeader([]byte{3}, 2, 41), upds))      // the retired varint message kind
	f.Add(appendInstallRecord(nil, 0, 1, make([]byte, shardTable().ObjSize))[:40]) // an install, not a batch
	f.Fuzz(func(t *testing.T, body []byte) {
		batch, err := recordBatch(body, 7)
		if err != nil {
			return
		}
		if body[0] != recUpdateRuns && body[0] != recMessageRuns {
			t.Fatalf("accepted a record of kind %d", body[0])
		}
		runs, err := wal.ParseRuns(batch)
		if err != nil {
			return
		}
		var got []wal.Update
		for base, ents, ok := runs.Next(); ok; base, ents, ok = runs.Next() {
			for i := 0; i < len(ents); i += 6 {
				low, v := wal.RunEntry(ents, i)
				got = append(got, wal.Update{Cell: base | low, Value: v})
			}
		}
		if len(got)*6 > len(batch) {
			t.Fatalf("a %d-byte batch walked %d updates", len(batch), len(got))
		}
		head := bytes.Clone(body[:len(body)-len(batch)])
		if again := wal.EncodeRuns(head, got); !bytes.Equal(again, body) {
			t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, body)
		}
	})
}
