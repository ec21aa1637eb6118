package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/disk"
)

// frameHdrLen is the fixed part of a frame in front of its body: the u32
// body length and the u32 CRC of the body.
const frameHdrLen = 8

// parseFrame parses the frame at the start of b: the single source of truth
// for the frame layout (u32 length | u32 crc | u64 tick | payload, where
// length counts tick and payload and the CRC covers both) under every
// Reader: recovery's, the shipper's and the open-time scan.
//
//   - size > 0: b starts with a valid frame of size bytes; payload is a
//     slice of b, never a copy.
//   - size == 0, need > len(b): the frame is incomplete — need bytes from
//     its start would decide it. Whether that is "not yet" or a torn tail is
//     the caller's call; it knows how many bytes the file holds, so nothing
//     is ever allocated on the strength of an unverified length field.
//   - size == 0, need == 0: no valid frame starts here (impossible length or
//     CRC mismatch).
func parseFrame(b []byte) (tick uint64, payload []byte, size, need int) {
	if len(b) < frameHdrLen {
		return 0, nil, 0, frameHdrLen
	}
	length := binary.LittleEndian.Uint32(b[0:])
	if length < 8 || length > maxRecordSize {
		return 0, nil, 0, 0
	}
	size = frameHdrLen + int(length)
	if len(b) < size {
		return 0, nil, 0, size
	}
	body := b[frameHdrLen:size]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, nil, 0, 0
	}
	return binary.LittleEndian.Uint64(body), body[8:], size, 0
}

// mapAhead is how far past a segment's end the scanner maps it: a follower
// extends its mapping over the bytes appended since, and maps again only
// about once per mapAhead bytes of log rather than once per tick. A variable
// so that a test can cross many mappings with a small file.
var mapAhead = 4 << 20

// segScanner walks the frames of one segment file front to back. It maps the
// segment read-only over the length it last stat'ed, and mapAhead further,
// and parses frames in place, so a returned payload aliases the mapping.
// When a frame runs past the bytes mapped so far and the file has grown, it
// extends the mapping if the growth lies within its reach; otherwise it maps
// again from the page at or below off to the new end — a straddling frame
// needs no copy — and retires the old mapping with the count of records
// handed out so far; a retired mapping is unmapped once the owner has
// released that many (see DESIGN.md "Mapping lifetime").
type segScanner struct {
	f   *os.File
	off int64  // file offset of the next unparsed frame; 0: the header's
	buf []byte // mapped bytes from off onwards and not yet parsed
	// size is the file's length at the last stat: off < size after next
	// reported no frame means bytes are there that do not parse.
	size     int64
	end      int64     // the segment's bytes covered so far
	read     int64     // segment bytes covered, over every segment
	cur      []byte    // the mapping buf points into
	base     int64     // the file offset cur starts at
	retired  []retired // oldest first
	returned uint64    // records handed out
	released uint64    // records the owner holds no payload of
}

// retired is a mapping nothing is parsed from any more, unmapped once
// released reaches last: the records handed out by the time it was retired.
type retired struct {
	buf  []byte
	last uint64
}

// open starts the scan of a new segment file; the previous one's mapping
// must be retired. The record counts carry over.
func (s *segScanner) open(f *os.File) {
	s.f, s.off, s.buf, s.size, s.end = f, 0, nil, 0, 0
}

// header steps over the segment header and returns the format version it
// states, 0 without the magic; ok=false means the file is shorter yet.
func (s *segScanner) header() (version uint16, ok bool, err error) {
	if ok, err = s.remap(segHdrLen); ok {
		if string(s.buf[:len(segMagic)]) == segMagic {
			version = binary.LittleEndian.Uint16(s.buf[len(segMagic):])
		}
		s.buf, s.off = s.buf[segHdrLen:], int64(segHdrLen)
	}
	return version, ok, err
}

// next returns the frame at off and advances past it. ok=false with a nil
// error means no complete valid frame is there (yet): a clean end, a frame
// still being appended, a torn tail or corruption — the caller judges which
// from off, size and whether the segment is sealed. The scanner parses
// nothing at or past off after a failed parse, so a truncation there
// (openTail's) is never read; a retry maps the file again from off unless it
// has grown past the bytes mapped. A non-nil error is a device failure,
// never frame content.
func (s *segScanner) next() (tick uint64, payload []byte, ok bool, err error) {
	for {
		tick, payload, size, need := parseFrame(s.buf)
		if size > 0 {
			s.buf = s.buf[size:]
			s.off += int64(size)
			s.returned++
			return tick, payload, true, nil
		}
		if need > 0 {
			more, err := s.remap(need)
			if err != nil {
				return 0, nil, false, err
			}
			if more {
				continue
			}
		}
		s.buf = nil
		return 0, nil, false, nil
	}
}

// remap points buf at the file from off to its current end, if it holds at
// least need bytes from off, reporting whether it did. A file grown within
// the current mapping's reach only extends it: those bytes read through it
// already. Anything else — a heap copy, growth past the reach, a file no
// longer than what is mapped — maps the file again from the page holding off.
func (s *segScanner) remap(need int) (bool, error) {
	info, err := s.f.Stat()
	if err != nil {
		return false, err
	}
	s.size = info.Size()
	if int64(need) > s.size-s.off {
		return false, nil
	}
	if n := s.size - s.base; s.cur != nil && int64(len(s.cur)) < n && n <= int64(cap(s.cur)) {
		s.cur = s.cur[:n]
	} else {
		base := s.off &^ int64(os.Getpagesize()-1)
		m, err := disk.MapFile(s.f, base, int(s.size-base), mapAhead)
		if err != nil {
			return false, err
		}
		s.retire()
		s.cur, s.base = m, base
	}
	s.buf = s.cur[s.off-s.base:]
	if s.size > s.end { // bytes a truncation cut and the log rewrote count once
		s.read += s.size - s.end
		telReadBytes.Add(uint64(s.size - s.end))
		s.end = s.size
	}
	return true, nil
}

// retire stops parsing from the current mapping; it is unmapped once the
// records handed out so far are released.
func (s *segScanner) retire() {
	if s.cur != nil {
		s.retired = append(s.retired, retired{s.cur, s.returned})
		s.cur, s.buf = nil, nil
	}
	s.release(s.released)
}

// release marks the first n records handed out as no longer held, and
// unmaps every retired mapping they cover.
func (s *segScanner) release(n uint64) {
	s.released = max(s.released, min(n, s.returned))
	k := 0
	for k < len(s.retired) && s.retired[k].last <= s.released {
		disk.Unmap(s.retired[k].buf) //nolint:errcheck // a failed munmap only leaks the range
		k++
	}
	s.retired = append(s.retired[:0], s.retired[k:]...)
}

// close unmaps every mapping; no payload the scanner handed out may be read
// afterwards.
func (s *segScanner) close() {
	s.retire()
	s.release(s.returned)
}

// firstNeeded returns the index in the sorted segment start list of the
// first segment that can hold a record with tick >= from: the last one whose
// start is at or below from (or the first segment). Every record of a sealed
// segment is below its successor's start tick — the naming invariant Rotate
// keeps — so the predecessors of that pick hold nothing at or above from.
func firstNeeded(starts []uint64, from uint64) int {
	pick := 0
	for i, s := range starts {
		if s <= from {
			pick = i
		}
	}
	return pick
}

func corruptErr(start uint64, off, size int64) error {
	return fmt.Errorf("wal: segment %s corrupt at offset %d of %d", segName(start), off, size)
}
