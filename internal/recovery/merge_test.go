package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/wal"
)

// record is one tick-stamped log record.
type record struct {
	tick    uint64
	payload []byte
}

// records is a RecordSource over a slice.
type records []record

func (r *records) Next() (uint64, []byte, bool, error) {
	if len(*r) == 0 {
		return 0, nil, false, nil
	}
	rec := (*r)[0]
	*r = (*r)[1:]
	return rec.tick, rec.payload, true, nil
}

// span returns n records for every tick in [lo, hi]. Record k of a tick
// writes the same eight cells in every span; mark goes into the values, so
// the two copies of a tick leave different bytes and the winner is visible.
func span(lo, hi uint64, n int, mark uint32) []record {
	var out []record
	for tick := lo; tick <= hi; tick++ {
		for k := 0; k < n; k++ {
			rng := rand.New(rand.NewSource(int64(tick)*31 + int64(k)))
			upds := make([]wal.Update, 8)
			for i := range upds {
				upds[i] = wal.Update{Cell: uint32(rng.Intn(pCells)), Value: mark | uint32(tick)<<8 | uint32(k)}
			}
			out = append(out, record{tick, wal.EncodeUpdates(nil, upds)})
		}
	}
	return out
}

// Marks for the two copies of a tick.
const (
	fromLog   = 0x10000000
	fromExtra = 0x20000000
)

// mergeAsOf is the image floor of the merge tests: replay starts at 11.
const mergeAsOf = 10

// checkMerge recovers an image as of mergeAsOf, with logRecs as the local log
// and extra as the extra source, at 1, 2 and 8 shards, and requires every slab
// to be byte-identical to the serial reference: the image with want applied
// in order.
func checkMerge(t *testing.T, logRecs, extra, want []record) {
	t.Helper()
	a, b := pBackup(t, disk.NewMem()), pBackup(t, disk.NewMem())
	img := make([]byte, pObj*pObjSize)
	rand.New(rand.NewSource(41)).Read(img)
	if err := a.WriteRun(0, img); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteHeader(disk.Header{Epoch: 2, AsOfTick: mergeAsOf, Complete: true}); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, rec := range logRecs {
		if err := log.Append(rec.tick, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	ref := applyFrom(t, img, want, 0)
	last := logRecs[len(logRecs)-1].tick
	lastRecs := 0
	for _, rec := range logRecs {
		if rec.tick == last {
			lastRecs++
		}
	}
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src := records(slices.Clone(extra))
			slab := make([]byte, pObj*pObjSize)
			res, err := RecoverParallel(updateLog(ParallelOptions{
				A: a, B: b, Slab: slab, Log: log, Ranges: evenRanges(pObj, shards), Extra: &src,
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(slab, ref) {
				t.Fatal("merged replay differs from the serial reference")
			}
			if next := want[len(want)-1].tick + 1; res.NextTick != next {
				t.Errorf("next tick %d, want %d", res.NextTick, next)
			}
			if res.LastLogTick != last || res.LastTickRecords != lastRecs {
				t.Errorf("log end (%d, %d records), the log holds (%d, %d)",
					res.LastLogTick, res.LastTickRecords, last, lastRecs)
			}
		})
	}
}

// TestMergeExtraWinsSharedTicks: the extra source covers [floor, 24] (a
// peer's delta records) and the log holds every tick to 29 — each shared
// tick replays the source's copy, and the log supplies the ticks after it.
func TestMergeExtraWinsSharedTicks(t *testing.T) {
	logRecs := span(0, 29, 2, fromLog)
	extra := span(mergeAsOf+1, 24, 2, fromExtra)
	checkMerge(t, logRecs, extra, append(slices.Clone(extra), span(25, 29, 2, fromLog)...))
}

// TestMergeLogFillsBelowExtra: the extra source starts above the image floor
// (an inbox pruned past an older image recovery fell back to) — the log
// supplies the ticks from the floor up to the source's first tick, then the
// source takes over, past the log's end too.
func TestMergeLogFillsBelowExtra(t *testing.T) {
	logRecs := span(0, 29, 2, fromLog)
	extra := span(20, 35, 2, fromExtra)
	checkMerge(t, logRecs, extra, append(span(mergeAsOf+1, 19, 2, fromLog), extra...))
}

// TestMergeTornLastTickTakesExtraCopy: the crash tore the log's last tick
// after one of its three records; the extra source's whole copy of that tick
// replaces it.
func TestMergeTornLastTickTakesExtraCopy(t *testing.T) {
	logRecs := append(span(0, 28, 3, fromLog), span(29, 29, 3, fromLog)[0])
	extra := span(27, 29, 3, fromExtra)
	checkMerge(t, logRecs, extra, append(span(mergeAsOf+1, 26, 3, fromLog), extra...))
}

// TestMergeRuleAndMarks drives the reader's merge directly over random logs
// and sources (ticks shared or not, either copy of a tick longer, records
// below the floor). The fanned stream must follow the merge rule, and no
// batch's release mark may cover a log record that is fanned after it: the
// reader would then reuse that record's chunk while the record is still in
// flight.
func TestMergeRuleAndMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		const from = 5
		// Log record i is payload {i}: the merge hands back the payload, so
		// a fanned log record names its own count.
		var logRecs, extra []record
		for tick := uint64(0); tick < 20; tick++ {
			for k := rng.Intn(4); k > 0; k-- {
				logRecs = append(logRecs, record{tick, []byte{byte(len(logRecs) + 1)}})
			}
			for k := rng.Intn(4); k > 0; k-- {
				extra = append(extra, record{tick, nil})
			}
		}
		var want []record
		for tick := uint64(from); tick < 20; tick++ {
			inTick := func(rs []record) (out []record) {
				for _, r := range rs {
					if r.tick == tick {
						out = append(out, r)
					}
				}
				return out
			}
			l, e := inTick(logRecs), inTick(extra)
			if len(e) > 0 && len(e) >= len(l) {
				want = append(want, e...)
			} else {
				want = append(want, l...)
			}
		}

		type fanned struct {
			rec  record
			mark uint64
		}
		var got []fanned
		src := records(slices.Clone(extra))
		m := merge{src: &src, from: from, fan: func(tick uint64, payload []byte, mark uint64) {
			got = append(got, fanned{record{tick, payload}, mark})
		}}
		m.advance()
		for i, r := range logRecs {
			if r.tick >= from {
				if err := m.log(r.tick, r.payload, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.finish(uint64(len(logRecs))); err != nil {
			t.Fatal(err)
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: fanned %d records, the rule replays %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].rec.tick != want[i].tick || !bytes.Equal(got[i].rec.payload, want[i].payload) {
				t.Fatalf("trial %d: record %d is (%d, %v), the rule replays (%d, %v)",
					trial, i, got[i].rec.tick, got[i].rec.payload, want[i].tick, want[i].payload)
			}
			for _, later := range got[i+1:] {
				if later.rec.payload != nil && uint64(later.rec.payload[0]) <= got[i].mark {
					t.Fatalf("trial %d: record %d's mark %d covers log record %d, fanned after it",
						trial, i, got[i].mark, later.rec.payload[0])
				}
			}
		}
	}
}

// TestMergeTornExtraTickTakesLogCopy: the crash tore the extra source's last
// tick after one of its three records (an inbox flushed mid-tick) while the
// log holds that tick whole — the log's copy replays, not the source's part.
func TestMergeTornExtraTickTakesLogCopy(t *testing.T) {
	logRecs := span(0, 29, 3, fromLog)
	extra := append(span(20, 28, 3, fromExtra), span(29, 29, 3, fromExtra)[0])
	want := append(span(mergeAsOf+1, 19, 3, fromLog), span(20, 28, 3, fromExtra)...)
	checkMerge(t, logRecs, extra, append(want, span(29, 29, 3, fromLog)...))
}
