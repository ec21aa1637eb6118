package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/recovery"
	"repro/internal/wal"
)

// Engine log records carry a one-byte kind tag, so update ticks, cluster
// messages and range installs mix freely in one log. Every kind is data:
// replay copies bytes and re-executes nothing. These three are log format
// version 1 (the segment header's); any other kind (the retired 0, 1 and 3)
// fails recovery with an error naming its kind and tick.
//
// The engine logs a tick's updates as runs (wal.EncodeRuns) in the
// bitmap-word order its apply sorts them into, so a replay worker stores its
// own runs and jumps over the rest.
const (
	recInstall     byte = 2 // payload: u64 lo, u64 hi, raw object bytes (range.go)
	recUpdateRuns  byte = 4 // payload: wal.EncodeRuns batch, word-ordered
	recMessageRuns byte = 5 // payload: wal.AppendMessageHeader, then a wal.EncodeRuns batch
)

// recordBatch returns the run batch inside an update or message record.
// Other kinds are an error.
func recordBatch(body []byte, tick uint64) ([]byte, error) {
	switch {
	case len(body) == 0:
		return nil, fmt.Errorf("engine: empty log record at tick %d", tick)
	case body[0] == recUpdateRuns:
		return body[1:], nil
	case body[0] != recMessageRuns:
		return nil, fmt.Errorf("engine: unknown log record kind %d at tick %d", body[0], tick)
	}
	_, _, batch, err := wal.SplitMessage(body[1:])
	if err != nil {
		return nil, fmt.Errorf("engine: tick %d: %w", tick, err)
	}
	return batch, nil
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
// many it applied and the cells they wrote. An install record ends the
// segment the index takes and is applied alone once the walk has restored
// the whole range. A record the index refuses — a run record whose framing
// is bad, a kind this format does not have — ends the segment too, and
// replay stops there with the records before it applied: every shard checks
// every record, so all stop at the same one.
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
		m, err = r.e.replayInstall(window[i].Payload[1:], r.lo, r.hi)
		if n += m; err != nil {
			return i, n, err
		}
	}
}

// index adds the runs on the range's pages of the records from window[i] on
// to the page index, up to the first install record, and returns that
// record's position (len(window) past the last). A record it cannot read
// stops it there too, with the error that refuses the record.
func (r *replayer) index(window []recovery.Record, i int) (int, error) {
	cpo := uint64(r.e.store.cellsPerObj)
	clo, chi := uint64(r.lo)*cpo, uint64(r.hi)*cpo
	for ; i < len(window); i++ {
		tick, body := window[i].Tick, window[i].Payload
		if len(body) > 0 && body[0] == recInstall {
			return i, nil
		}
		batch, err := recordBatch(body, tick)
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
