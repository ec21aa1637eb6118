package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecodeRuns: the run decoder never panics, never sizes its output past
// what the payload backs (six bytes an update), accepts only what EncodeRuns
// writes — an accepted payload re-encodes to itself byte for byte — and
// ParseRuns' walk and count agree with the decoded updates. The checked-in
// seeds (testdata/fuzz/FuzzDecodeRuns) cover an empty batch, one page, many
// pages in both directions, and the framings it must refuse: a truncated
// run, a zero-length run, adjacent runs on one page and an overlong varint.
func FuzzDecodeRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		updates, err := DecodeRuns(nil, payload)
		if cap(updates)*runEntryLen > len(payload) {
			t.Fatalf("%d-byte payload sized a %d-update buffer", len(payload), cap(updates))
		}
		runs, perr := ParseRuns(payload)
		if (err != nil) != (perr != nil) {
			t.Fatalf("DecodeRuns err %v, ParseRuns err %v", err, perr)
		}
		if err != nil {
			return
		}
		if runs.Len() != len(updates) {
			t.Fatalf("ParseRuns counts %d updates, DecodeRuns returned %d", runs.Len(), len(updates))
		}
		if again := EncodeRuns(nil, updates); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes to different bytes:\n got %x\nwant %x", again, payload)
		}
	})
}

// TestRunsRoundTrip: any batch — word-ordered or not, every page width of
// delta, both directions — decodes back to itself in batch order through
// EncodeRuns, and appending keeps what dst held. A cell-ordered batch takes
// one run per page it touches.
func TestRunsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, span := range []uint32{50, 1 << 16, 1 << 20, 1<<32 - 1} {
		batch := make([]Update, 500)
		for i := range batch {
			batch[i] = Update{Cell: uint32(rng.Int63n(int64(span) + 1)), Value: rng.Uint32()}
		}
		for _, sorted := range []bool{false, true} {
			if sorted {
				slices.SortStableFunc(batch, func(a, b Update) int { return int(a.Cell>>16) - int(b.Cell>>16) })
			}
			prefix := []Update{{Cell: 1, Value: 2}}
			got, err := DecodeRuns(slices.Clone(prefix), EncodeRuns([]byte{0xAA}, batch)[1:])
			if err != nil {
				t.Fatalf("span %d sorted %v: %v", span, sorted, err)
			}
			if !reflect.DeepEqual(got, append(prefix, batch...)) {
				t.Fatalf("span %d sorted %v: batch does not come back", span, sorted)
			}
			if !sorted {
				continue
			}
			pages := map[uint32]bool{}
			for _, u := range batch {
				pages[u.Cell>>16] = true
			}
			runs, _ := ParseRuns(EncodeRuns(nil, batch))
			n := 0
			for _, _, ok := runs.Next(); ok; _, _, ok = runs.Next() {
				n++
			}
			if n != len(pages) {
				t.Errorf("span %d: sorted batch over %d pages took %d runs", span, len(pages), n)
			}
		}
	}
}
