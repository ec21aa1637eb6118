package wal

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Update is one cell write: the 4-byte value stored into a table cell. This
// is the logical unit the engine logs — one record per tick holds the tick's
// whole update batch.
type Update struct {
	Cell  uint32
	Value uint32
}

// maxUpdateLen is the longest encoding of one update: a five-byte cell delta
// (33 zigzag bits) and the four value bytes.
const maxUpdateLen = 9

// varintLen maps the bit length of a value to its varint byte count.
var varintLen = func() (t [65]uint8) {
	for i := range t {
		t[i] = uint8((max(i, 1) + 6) / 7)
	}
	return t
}()

// varintCont is the continuation bits of an n-byte varint: 0x80 on every
// byte below the last. A cell delta is at most five bytes.
var varintCont = [8]uint64{2: 0x80, 3: 0x8080, 4: 0x808080, 5: 0x80808080}

// EncodeUpdates appends the batch encoding to buf and returns it. Cells are
// delta-encoded (signed varint from the previous cell) because game updates
// cluster by unit; values are fixed 4-byte little-endian. The room for every
// update is reserved once, and a varint is written without a per-byte loop:
// a one-byte delta (neighbouring cells) goes out with its value in a single
// 8-byte store, and a longer one — hotspot deltas are three or four bytes at
// no rhythm a branch predictor learns — has its 7-bit groups spread into
// bytes arithmetically and its length looked up from its bit length, so the
// only branch left is "one byte or more".
func EncodeUpdates(buf []byte, updates []Update) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	pos := len(buf)
	room := maxUpdateLen*len(updates) + 8 // + the 8-byte store's overhang
	buf = slices.Grow(buf, room)[:pos+room]
	prev := int64(0)
	for _, u := range updates {
		d := int64(u.Cell) - prev
		prev = int64(u.Cell)
		ux := uint64(d<<1) ^ uint64(d>>63) // zigzag, as binary.AppendVarint
		if ux < 0x80 {
			binary.LittleEndian.PutUint64(buf[pos:], ux|uint64(u.Value)<<8)
			pos += 5
			continue
		}
		// x + x&^(2^k-1) doubles the part of x at and above bit k: each step
		// opens the gap for one more continuation bit.
		w := ux + ux&^0x7f
		w += w &^ 0x7fff
		w += w &^ 0x7fffff
		w += w &^ 0x7fffffff
		n := int(varintLen[bits.Len64(ux)])
		binary.LittleEndian.PutUint64(buf[pos:], w|varintCont[n&7])
		binary.LittleEndian.PutUint32(buf[pos+n:], u.Value)
		pos += n + 4
	}
	return buf[:pos]
}

// minUpdateLen is the shortest encoding of one update: a one-byte cell delta
// and the four value bytes.
const minUpdateLen = 5

// DecodeUpdates parses a batch encoded by EncodeUpdates, appending to dst.
func DecodeUpdates(dst []Update, payload []byte) ([]Update, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("wal: bad update count")
	}
	p := payload[n:]
	// Every update takes at least minUpdateLen bytes, so a larger count can
	// only end in a truncation error: refusing it here means the count never
	// sizes an allocation or a loop the payload does not back.
	if count > uint64(len(p)/minUpdateLen) {
		return dst, fmt.Errorf("wal: update count %d exceeds what %d payload bytes can hold", count, len(p))
	}
	dst = growUpdates(dst, int(count))
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		var d int64
		var value uint32
		n = 0
		if len(p) >= 9 {
			// Fast path: a delta of up to five bytes (every in-range cell
			// delta is one) and its value sit inside the next nine bytes, so
			// one 8-byte load serves the continuation-bit tests, the 7-bit
			// groups and, up to a four-byte delta, the value as well.
			w := binary.LittleEndian.Uint64(p)
			var ux uint64
			switch {
			case w&0x80 == 0:
				ux, value, n = w&0x7f, uint32(w>>8), 5
			case w&0x8000 == 0:
				ux, value, n = w&0x7f|w>>1&0x3f80, uint32(w>>16), 6
			case w&0x800000 == 0:
				ux, value, n = w&0x7f|w>>1&0x3f80|w>>2&0x1fc000, uint32(w>>24), 7
			case w&0x80000000 == 0:
				ux, value, n = w&0x7f|w>>1&0x3f80|w>>2&0x1fc000|w>>3&0xfe00000, uint32(w>>32), 8
			case w&0x8000000000 == 0:
				ux = w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000 | w>>3&0xfe00000 | w>>4&0x7f0000000
				value, n = binary.LittleEndian.Uint32(p[5:]), 9
			}
			d = int64(ux>>1) ^ -int64(ux&1) // zigzag, as binary.Varint
			p = p[n:]
		}
		if n == 0 {
			// Near the end of the payload, or a delta of six bytes or more
			// (over-long or out of range): the general decoder.
			d, n = binary.Varint(p)
			if n <= 0 {
				return dst, fmt.Errorf("wal: bad cell delta at update %d", i)
			}
			p = p[n:]
			if len(p) < 4 {
				return dst, fmt.Errorf("wal: truncated value at update %d", i)
			}
			value = binary.LittleEndian.Uint32(p)
			p = p[4:]
		}
		cell := prev + d
		if cell < 0 || cell > 1<<32-1 {
			return dst, fmt.Errorf("wal: cell %d out of range at update %d", cell, i)
		}
		prev = cell
		dst = append(dst, Update{Cell: uint32(cell), Value: value})
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("wal: %d trailing bytes after batch", len(p))
	}
	return dst, nil
}

// growUpdates returns dst with room for n more updates, grown to exactly
// that when it lacks it: a count the payload backs sizes the buffer and
// nothing past it.
func growUpdates(dst []Update, n int) []Update {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]Update, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}
