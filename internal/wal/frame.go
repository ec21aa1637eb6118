package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// frameHdrLen is the fixed part of a frame in front of its body: the u32
// body length and the u32 CRC of the body.
const frameHdrLen = 8

// parseFrame parses the frame at the start of b: the single source of truth
// for the frame layout (u32 length | u32 crc | u64 tick | payload, where
// length counts tick and payload and the CRC covers both) shared by the
// batch Reader, the tail-follow reader and the open-time scan.
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

// maxChunk bounds one read of a segment. A chunk is also never larger than
// the bytes the file still holds, so a directory of small segments costs
// small buffers, and it grows past maxChunk only for a single frame that
// long whose bytes are all present.
const maxChunk = 4 << 20

// segScanner walks the frames of one segment file front to back, reading it
// in chunks and slicing frames out of them. Every refill reads into a fresh
// chunk, so a returned payload stays valid for as long as the caller holds
// it; the partial frame at the end of the old chunk is carried over by copy.
type segScanner struct {
	f   *os.File
	off int64  // file offset of the next unparsed frame
	buf []byte // bytes read from off onwards and not yet parsed
	// size is the file's length at the last refill: off < size after next
	// reported no frame means bytes are there that do not parse.
	size int64
	read int64 // bytes read from the file
}

// next returns the frame at off and advances past it. ok=false with a nil
// error means no complete valid frame is there (yet): a clean end, a frame
// still being appended, a torn tail or corruption — the caller judges which
// from off, size and whether the segment is sealed. The scanner keeps no
// bytes across a failed parse, so a retry re-reads the file from off. A
// non-nil error is a device failure, never frame content.
func (s *segScanner) next() (tick uint64, payload []byte, ok bool, err error) {
	for {
		tick, payload, size, need := parseFrame(s.buf)
		if size > 0 {
			s.buf = s.buf[size:]
			s.off += int64(size)
			return tick, payload, true, nil
		}
		if need > 0 {
			more, err := s.fill(need)
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

// fill replaces buf with a chunk holding at least need bytes from off,
// reporting false when the file does not hold that many.
func (s *segScanner) fill(need int) (bool, error) {
	info, err := s.f.Stat()
	if err != nil {
		return false, err
	}
	s.size = info.Size()
	avail := s.size - s.off
	if int64(need) > avail {
		return false, nil
	}
	n := maxChunk
	if n < need {
		n = need
	}
	if int64(n) > avail {
		n = int(avail)
	}
	chunk := make([]byte, n)
	have := copy(chunk, s.buf)
	got, err := s.f.ReadAt(chunk[have:], s.off+int64(have))
	s.read += int64(got)
	telReadBytes.Add(uint64(got))
	if err != nil && err != io.EOF {
		return false, err
	}
	s.buf = chunk[:have+got]
	return len(s.buf) >= need, nil // short only if the file shrank under us
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
