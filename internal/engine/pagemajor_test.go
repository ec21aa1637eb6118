package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// pmTable is 260,000 cells in 48-cell objects: a little under four run pages,
// an object straddling every page boundary, and at 2 and 8 shards shard
// boundaries inside pages (the 2-shard cut is object 2752, cell 132,096 of
// page 2).
func pmTable() gamestate.Table {
	return gamestate.Table{Rows: 20_000, Cols: 13, CellSize: 4, ObjSize: 192}
}

// pmRecord is one logged record of the page-major differential and what it
// does when applied on its own: its updates in batch order, or an install.
type pmRecord struct {
	tick    uint64
	body    []byte
	updates []wal.Update
	lo, hi  int // an install of objects [lo, hi) when hi > lo
	data    []byte
}

// applyTo applies the record to slab, one update after another, and returns
// what replay counts for it: cells written, or objects installed.
func (r pmRecord) applyTo(slab []byte, objSize int) int64 {
	if r.hi > r.lo {
		copy(slab[r.lo*objSize:r.hi*objSize], r.data)
		return int64(r.hi - r.lo)
	}
	for _, u := range r.updates {
		binary.LittleEndian.PutUint32(slab[u.Cell*4:], u.Value)
	}
	return int64(len(r.updates))
}

// pmHot is a cell every run record writes, each time to its own value.
const pmHot = 70_000

// pmHistory returns a log of run-record blocks cut by varint records and
// installs. Run records write pages 0–2 only, in random order, so a record
// holds several runs on one page, never adjacent, and the same cell in two
// of them; the first block alone writes page 0's last cell, whose object
// straddles into page 1, so the first walk's restore of that object must
// come before its writes. Page 3, the last, is written only by the varint
// records and the installs. With bad set, the 28th record is a run record cut short, and
// good records follow it.
func pmHistory(rng *rand.Rand, tab gamestate.Table, bad bool) []pmRecord {
	var recs []pmRecord
	tick := uint64(1)
	add := func(r pmRecord) {
		r.tick = tick
		recs = append(recs, r)
		tick++
	}
	runRecord := func() pmRecord {
		twice := uint32(rng.Intn(1 << 16)) // page 0, written in two runs
		upds := []wal.Update{{Cell: twice, Value: rng.Uint32()}, {Cell: 2<<16 + 5, Value: rng.Uint32()}}
		for range 40 {
			upds = append(upds, wal.Update{Cell: uint32(rng.Intn(3 << 16)), Value: rng.Uint32()})
		}
		upds = append(upds, wal.Update{Cell: twice, Value: rng.Uint32()}, wal.Update{Cell: pmHot, Value: uint32(tick)})
		if tick <= 12 {
			upds = append(upds, wal.Update{Cell: 1<<16 - 1, Value: rng.Uint32()})
		}
		origin := int32(-1)
		if tick%3 == 0 {
			origin = 1 // a message record
		}
		return pmRecord{body: appendRunRecord(nil, origin, tick-1, upds), updates: upds}
	}
	varint := func() pmRecord {
		var upds []wal.Update
		for range 30 {
			upds = append(upds, wal.Update{Cell: uint32(rng.Intn(tab.NumCells())), Value: rng.Uint32()})
		}
		return pmRecord{body: updatesRecord(upds...), updates: upds}
	}
	install := func(lo, hi int) pmRecord {
		data := make([]byte, (hi-lo)*tab.ObjSize)
		rng.Read(data)
		return pmRecord{body: appendInstallRecord(nil, lo, hi, data), lo: lo, hi: hi, data: data}
	}
	for range 12 {
		add(runRecord())
	}
	add(varint())
	for range 8 {
		add(runRecord())
	}
	add(install(2700, 2800))             // across the 2-shard cut
	add(install(5300, tab.NumObjects())) // page 3, to the table's end
	for i := range 10 {
		if r := runRecord(); bad && i == 4 {
			add(pmRecord{body: r.body[:len(r.body)-3]})
		} else {
			add(r)
		}
	}
	add(varint())
	return recs
}

// pmRecover replays log over the image in backups into e's slab through the
// pipeline with e's shard plan and replayers. A step above zero hands each
// replayer its window in pieces of that many records, as if windows held no
// more: the restore watermark carries over from piece to piece.
func pmRecover(e *Engine, backups [2]*disk.Backup, log *wal.Log, step int) (recovery.ParallelResult, error) {
	ranges := e.plan.ranges()
	reps := e.replayers(ranges)
	return recovery.RecoverParallel(recovery.ParallelOptions{
		A: backups[0], B: backups[1], Slab: e.store.Slab(), Log: log, Ranges: ranges,
		Replay: func(shard int, window []recovery.Record, restore *recovery.Restorer) (int, int64, error) {
			done, n := 0, int64(0)
			for {
				k := len(window) - done
				if step > 0 {
					k = min(k, step)
				}
				m, u, err := reps[shard].replay(window[done:done+k], restore)
				done, n = done+m, n+u
				if err != nil || done == len(window) {
					return done, n, err
				}
			}
		},
	})
}

// TestPageMajorReplayMatchesRecordOrder: the page-major replayer, at 1, 2 and
// 8 shards and with windows whole or cut every 7 or every record, leaves the
// slab exactly as applying the records one at a time to the image does, and
// counts the same updates: one cell written by every run record, pages that
// recur in a record, shard cuts inside pages, segments cut by varint records
// and installs, and a last page no run ever writes. With a run record cut
// short mid-log every shard stops at it, naming its tick, with every record
// before it applied and none after. An empty log restores the image alone.
func TestPageMajorReplayMatchesRecordOrder(t *testing.T) {
	tab := pmTable()
	image := make([]byte, tab.StateBytes())
	rand.New(rand.NewSource(49)).Read(image)
	var backups [2]*disk.Backup
	for i := range backups {
		b, err := disk.NewBackup(disk.NewMem(), tab.NumObjects(), tab.ObjSize)
		if err != nil {
			t.Fatal(err)
		}
		backups[i] = b
	}
	if err := backups[0].WriteRun(0, image); err != nil {
		t.Fatal(err)
	}
	if err := backups[0].WriteHeader(disk.Header{Epoch: 1, AsOfTick: 0, Complete: true}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []bool{false, true} {
		recs := pmHistory(rand.New(rand.NewSource(7)), tab, bad)
		log, err := wal.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want, count, stop := bytes.Clone(image), int64(0), len(recs)
		for i, r := range recs {
			if err := log.Append(r.tick, r.body); err != nil {
				t.Fatal(err)
			}
			if r.updates == nil && r.hi == 0 {
				stop = i
			}
			if stop == len(recs) {
				count += r.applyTo(want, tab.ObjSize)
			}
		}
		for _, shards := range []int{1, 2, 8} {
			e, err := Open(Options{Table: tab, InMemory: true, Mode: ModeNone, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []int{0, 7, 1} {
				name := fmt.Sprintf("bad=%v shards=%d step=%d", bad, shards, step)
				res, err := pmRecover(e, backups, log, step)
				switch {
				case !bad && err != nil:
					t.Fatalf("%s: %v", name, err)
				case bad && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tick %d", recs[stop].tick))):
					t.Fatalf("%s: error %v does not name tick %d", name, err, recs[stop].tick)
				}
				if !bytes.Equal(e.store.Slab(), want) {
					t.Errorf("%s: the slab differs from the records applied one at a time", name)
				}
				if res.ReplayedUpdates != count {
					t.Errorf("%s: replayed %d updates, applying the records one at a time writes %d", name, res.ReplayedUpdates, count)
				}
				for _, st := range res.Shards {
					if st.Records != stop {
						t.Errorf("%s: shard %d applied %d records, want %d", name, st.Shard, st.Records, stop)
					}
				}
			}
			e.Close()
		}
		log.Close()
	}

	log, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	e, err := Open(Options{Table: tab, InMemory: true, Mode: ModeNone, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := pmRecover(e, backups, log, 0); err != nil || !bytes.Equal(e.store.Slab(), image) {
		t.Errorf("an empty log does not restore the image alone: %v", err)
	}
}
