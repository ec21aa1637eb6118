package wal

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The run encoding of an update batch. A batch ordered by cell — the engine
// logs each tick in the bitmap-word order its apply already sorts it into —
// falls into few runs of consecutive updates on one 65,536-cell page, and a
// run's updates need no delta chain: each is a fixed six bytes, so a reader
// can jump over a run that is not its own and store the rest without a
// decoder. The layout is a uvarint update count, then the runs; a run is the
// zigzag varint page delta from the previous run's page (from 0 for the
// first), a uvarint length n ≥ 1, and n entries of (u16 low 16 cell bits,
// u32 value), little-endian. Consecutive updates on one page always form one
// run, so adjacent runs never share a page and every batch has exactly one
// encoding. The page is cell>>16 whatever the table, and nothing is sorted
// here: any batch encodes, an unordered one just into more runs.

// runEntryLen is the fixed size of one update inside a run.
const runEntryLen = 6

// maxRunHeaderLen bounds a run header: a three-byte page delta (17 zigzag
// bits) and a five-byte length.
const maxRunHeaderLen = 8

// EncodeRuns appends the run encoding of updates to buf and returns it. The
// room for the worst case (every update its own run) is reserved once, and
// an entry goes out in one 8-byte store whose overhang the next entry or the
// final cut overwrites.
func EncodeRuns(buf []byte, updates []Update) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	pos := len(buf)
	room := (maxRunHeaderLen+runEntryLen)*len(updates) + 2 // + the 8-byte store's overhang
	buf = slices.Grow(buf, room)[:pos+room]
	prev := uint32(0)
	for i := 0; i < len(updates); {
		page := updates[i].Cell >> 16
		j := i + 1
		for j < len(updates) && updates[j].Cell>>16 == page {
			j++
		}
		d := int64(page) - int64(prev)
		pos += binary.PutUvarint(buf[pos:], uint64(d<<1)^uint64(d>>63)) // zigzag, as binary.PutVarint
		pos += binary.PutUvarint(buf[pos:], uint64(j-i))
		for _, u := range updates[i:j] {
			binary.LittleEndian.PutUint64(buf[pos:], uint64(uint16(u.Cell))|uint64(u.Value)<<16)
			pos += runEntryLen
		}
		prev, i = page, j
	}
	return buf[:pos]
}

// Runs is a run-encoded batch whose framing ParseRuns has checked: Next
// walks its runs with no further checks.
type Runs struct {
	p    []byte
	page uint32
	n    int
}

// ParseRuns checks the framing of a batch encoded by EncodeRuns — every run
// header, the run lengths summing to the count, and the exact length —
// without reading any entry, and returns the batch ready to walk. It
// accepts exactly the bytes EncodeRuns writes: a non-minimal varint, an
// empty run or a run on the page of the run before it is refused.
func ParseRuns(payload []byte) (Runs, error) {
	count, k, err := uvarint(payload)
	if err != nil {
		return Runs{}, fmt.Errorf("wal: bad run batch count: %w", err)
	}
	body := payload[k:]
	// Every update takes runEntryLen bytes, so a larger count can only end in
	// a truncation error: refusing it here means the count never sizes a loop
	// or an allocation the payload does not back.
	if count > uint64(len(body)/runEntryLen) {
		return Runs{}, fmt.Errorf("wal: run batch count %d exceeds what %d payload bytes can hold", count, len(body))
	}
	p, page, left := body, int64(0), int(count)
	for run := 0; left > 0; run++ {
		zz, k, err := uvarint(p)
		if err != nil {
			return Runs{}, fmt.Errorf("wal: bad page delta of run %d: %w", run, err)
		}
		d := int64(zz>>1) ^ -int64(zz&1)
		if d == 0 && run > 0 {
			return Runs{}, fmt.Errorf("wal: run %d repeats the page of the run before it", run)
		}
		if page += d; page < 0 || page > 0xFFFF {
			return Runs{}, fmt.Errorf("wal: run %d page %d out of range", run, page)
		}
		n, m, err := uvarint(p[k:])
		if err != nil {
			return Runs{}, fmt.Errorf("wal: bad length of run %d: %w", run, err)
		}
		if n == 0 || n > uint64(left) {
			return Runs{}, fmt.Errorf("wal: run %d holds %d updates, %d left of the count", run, n, left)
		}
		p = p[k+m:]
		if len(p) < int(n)*runEntryLen {
			return Runs{}, fmt.Errorf("wal: run %d truncated", run)
		}
		p = p[int(n)*runEntryLen:]
		left -= int(n)
	}
	if len(p) != 0 {
		return Runs{}, fmt.Errorf("wal: %d trailing bytes after run batch", len(p))
	}
	return Runs{p: body, n: int(count)}, nil
}

// uvarint is binary.Uvarint restricted to minimal encodings, the only ones
// an encoder writes.
func uvarint(p []byte) (uint64, int, error) {
	v, k := binary.Uvarint(p)
	switch {
	case k <= 0:
		return 0, 0, fmt.Errorf("truncated or overflowing varint")
	case k != (bits.Len64(v|1)+6)/7:
		return 0, 0, fmt.Errorf("non-minimal varint")
	}
	return v, k, nil
}

// Len returns the number of updates in the batch.
func (r Runs) Len() int { return r.n }

// Next returns the next run: the first cell of its page and its entries,
// runEntryLen bytes an update (RunEntry reads one). ok is false once the
// runs are exhausted.
func (r *Runs) Next() (base uint32, entries []byte, ok bool) {
	if len(r.p) == 0 {
		return 0, nil, false
	}
	d, k := binary.Varint(r.p)
	r.page = uint32(int64(r.page) + d)
	n, m := binary.Uvarint(r.p[k:])
	end := k + m + int(n)*runEntryLen
	entries, r.p = r.p[k+m:end], r.p[end:]
	return r.page << 16, entries, true
}

// RunEntry reads the entry at entries[i:]: the low 16 bits of its cell and
// its value.
func RunEntry(entries []byte, i int) (low uint32, value uint32) {
	return uint32(binary.LittleEndian.Uint16(entries[i:])), binary.LittleEndian.Uint32(entries[i+2:])
}

// DecodeRuns parses a batch encoded by EncodeRuns, appending its updates to
// dst in batch order.
func DecodeRuns(dst []Update, payload []byte) ([]Update, error) {
	runs, err := ParseRuns(payload)
	if err != nil {
		return dst, err
	}
	dst = growUpdates(dst, runs.Len())
	for base, ents, ok := runs.Next(); ok; base, ents, ok = runs.Next() {
		for i := 0; i < len(ents); i += runEntryLen {
			low, v := RunEntry(ents, i)
			dst = append(dst, Update{Cell: base | low, Value: v})
		}
	}
	return dst, nil
}
