package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/recovery"
	"repro/internal/wal"
)

// Engine log records carry a one-byte kind tag, so update ticks, cluster
// messages and range installs mix freely in one log. Every kind is data:
// replay copies bytes and re-executes nothing. Kind 1 (an opaque action
// payload re-executed through a caller's function) is retired; a log that
// still holds one fails recovery with an error naming its tick.
//
// The engine logs a tick's updates as runs (wal.EncodeRuns) in the
// bitmap-word order its apply sorts them into, so a replay worker stores its
// own runs and jumps over the rest. The varint kinds 0 and 3 are what logs
// before the run kinds hold; replay reads both.
const (
	recUpdates     byte = 0 // payload: wal.EncodeUpdates batch, arrival order
	recInstall     byte = 2 // payload: u64 lo, u64 hi, raw object bytes (range.go)
	recMessage     byte = 3 // payload: wal.AppendMessageHeader, then a wal.EncodeUpdates batch
	recUpdateRuns  byte = 4 // payload: wal.EncodeRuns batch, word-ordered
	recMessageRuns byte = 5 // payload: wal.AppendMessageHeader, then a wal.EncodeRuns batch
)

// recordBatch returns the update batch inside an update or message record
// of either encoding and whether it is runs. Other kinds are an error.
func recordBatch(body []byte, tick uint64) (batch []byte, runs bool, err error) {
	if len(body) == 0 {
		return nil, false, fmt.Errorf("engine: empty log record at tick %d", tick)
	}
	kind, payload := body[0], body[1:]
	switch kind {
	case recUpdates, recUpdateRuns:
		return payload, kind == recUpdateRuns, nil
	case recMessage, recMessageRuns:
		if _, _, batch, err = wal.SplitMessage(payload); err != nil {
			return nil, false, fmt.Errorf("engine: tick %d: %w", tick, err)
		}
		return batch, kind == recMessageRuns, nil
	default:
		return nil, false, fmt.Errorf("engine: unknown log record kind %d at tick %d", kind, tick)
	}
}

// replayer replays logged records into one shard's object range [lo, hi)
// at recovery, one window at a time, page-major. A run page is the 2^16-cell
// page of wal.EncodeRuns. The replayer indexes a segment of consecutive run
// records by the run pages of its range, then walks those pages in order:
// for each it restores the image's objects through the page's last cell and
// applies every record's run on the page in log order, so a page is
// restored and brought to the window's last tick while it is in cache.
// Every write to a cell sits in a run on its page, so the cell still sees
// its writes in record order. Each shard has its own replayer and
// goroutine. Recovery marks everything dirty afterwards, so no
// checkpointer bookkeeping.
type replayer struct {
	e      *Engine
	lo, hi int
	// pages[p] holds the segment's runs on run page plo+p, in record order;
	// first and last bound the pages that hold any.
	plo         uint64
	pages       [][][]byte
	first, last int
	scratch     []wal.Update
}

// replayers returns one replayer per shard range.
func (e *Engine) replayers(ranges []recovery.ShardRange) []*replayer {
	reps := make([]*replayer, len(ranges))
	cpo := uint64(e.store.cellsPerObj)
	for s, r := range ranges {
		rep := &replayer{e: e, lo: r.Lo, hi: r.Hi, plo: uint64(r.Lo) * cpo >> 16}
		if r.Hi > r.Lo {
			rep.pages = make([][][]byte, (uint64(r.Hi)*cpo-1)>>16-rep.plo+1)
		}
		rep.first, rep.last = len(rep.pages), -1
		reps[s] = rep
	}
	return reps
}

// replay applies a window of records to the shard's range and returns how
// many it applied and the cells they wrote. A record the index cannot take —
// a varint batch, an install, a kind it does not know — ends the segment
// and is applied alone once the walk has restored the whole range. A run
// record whose framing is bad ends the segment too, and replay stops there
// with the records before it applied: every shard checks every record, so
// all stop at the same one.
func (r *replayer) replay(window []recovery.Record, restore *recovery.Restorer) (int, int64, error) {
	var n int64
	for i := 0; ; i++ {
		j, err := r.index(window, i)
		m, rerr := r.walk(restore)
		if n += m; rerr != nil {
			return i, n, rerr
		}
		if i = j; err != nil || i == len(window) {
			return i, n, err
		}
		m, err = r.apply(window[i].Tick, window[i].Payload)
		if n += m; err != nil {
			return i, n, err
		}
	}
}

// index adds the runs on the range's pages of the run records from
// window[i] on to the page index, up to the first record it cannot take, and
// returns that record's position (len(window) past the last) with the error
// that refuses it if it is a run record that does not parse.
func (r *replayer) index(window []recovery.Record, i int) (int, error) {
	cpo := uint64(r.e.store.cellsPerObj)
	clo, chi := uint64(r.lo)*cpo, uint64(r.hi)*cpo
	for ; i < len(window); i++ {
		tick, body := window[i].Tick, window[i].Payload
		if len(body) == 0 || body[0] != recUpdateRuns && body[0] != recMessageRuns {
			return i, nil
		}
		batch, _, err := recordBatch(body, tick)
		if err != nil {
			return i, err
		}
		runs, err := wal.ParseRuns(batch)
		if err != nil {
			return i, fmt.Errorf("engine: tick %d: %w", tick, err)
		}
		for base, ents, ok := runs.Next(); ok; base, ents, ok = runs.Next() {
			if page := uint64(base); page < chi && page+1<<16 > clo {
				p := int(page>>16 - r.plo)
				r.pages[p] = append(r.pages[p], ents)
				r.first, r.last = min(r.first, p), max(r.last, p)
			}
		}
	}
	return i, nil
}

// walk applies the indexed runs page by page, restoring each page's objects
// first, a straddling last object included, and empties the index. Until
// the range is restored it walks every page of it, those without runs too.
func (r *replayer) walk(restore *recovery.Restorer) (int64, error) {
	first, last := r.first, r.last
	if restore.Restored() < r.hi {
		first, last = 0, len(r.pages)-1
	}
	cpo := uint64(r.e.store.cellsPerObj)
	clo, chi := uint64(r.lo)*cpo, uint64(r.hi)*cpo
	slab := r.e.store.slab
	var n int64
	for p := first; p <= last; p++ {
		page := (r.plo + uint64(p)) << 16
		end := page + 1<<16
		if err := restore.To(int((end + cpo - 1) / cpo)); err != nil {
			return n, err
		}
		whole := page >= clo && end <= chi
		for _, ents := range r.pages[p] {
			if whole {
				// An entry is the low 16 bits of its cell and its value: one
				// 8-byte load reads it while two more bytes of the run remain.
				pg := (*[4 << 16]byte)(slab[page*4:])
				n += int64(len(ents) / 6)
				for ; len(ents) >= 8; ents = ents[6:] {
					x := binary.LittleEndian.Uint64(ents)
					binary.LittleEndian.PutUint32(pg[int(uint16(x))*4:], uint32(x>>16))
				}
				if len(ents) == 6 {
					low, v := wal.RunEntry(ents, 0)
					binary.LittleEndian.PutUint32(pg[low*4:], v)
				}
				continue
			}
			for i := 0; i < len(ents); i += 6 {
				low, v := wal.RunEntry(ents, i)
				if c := page | uint64(low); c >= clo && c < chi {
					binary.LittleEndian.PutUint32(slab[c*4:], v)
					n++
				}
			}
		}
		r.pages[p] = r.pages[p][:0]
	}
	r.first, r.last = len(r.pages), -1
	return n, nil
}

// apply replays one record the index does not take, keeping only the
// shard's objects, and returns the number of cells written (objects, for a
// range install). A varint record is decoded whole first, so every shard
// refuses a bad record at the same place and none applies any of it.
func (r *replayer) apply(tick uint64, body []byte) (int64, error) {
	if len(body) > 0 && body[0] == recInstall {
		return r.e.replayInstall(body[1:], r.lo, r.hi)
	}
	batch, _, err := recordBatch(body, tick)
	if err != nil {
		return 0, err
	}
	if r.scratch, err = wal.DecodeUpdates(r.scratch[:0], batch); err != nil {
		return 0, fmt.Errorf("engine: tick %d: %w", tick, err)
	}
	cpo := uint64(r.e.store.cellsPerObj)
	clo, chi := uint64(r.lo)*cpo, uint64(r.hi)*cpo
	var n int64
	for _, u := range r.scratch {
		if c := uint64(u.Cell); c >= clo && c < chi {
			binary.LittleEndian.PutUint32(r.e.store.slab[c*4:], u.Value)
			n++
		}
	}
	return n, nil
}
