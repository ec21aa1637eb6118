package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// maxChunk bounds one read of a segment. A chunk is also never larger than
// the bytes the file still holds, so a directory of small segments costs
// small buffers, and it grows past maxChunk only for a single frame that
// long whose bytes are all present.
const maxChunk = 4 << 20

// segScanner walks the frames of one segment file front to back, reading it
// in chunks and slicing frames out of them. A returned payload aliases its
// chunk; the chunks come from the scanner's ring, which reuses one only
// after the owner has released every record sliced from it. The partial
// frame at the end of the old chunk is carried over by copy.
type segScanner struct {
	f   *os.File
	off int64  // file offset of the next unparsed frame
	buf []byte // bytes read from off onwards and not yet parsed
	// size is the file's length at the last refill: off < size after next
	// reported no frame means bytes are there that do not parse.
	size int64
	read int64 // bytes read from the file
	ring chunkRing
}

// open starts the scan of a new segment file. The ring, and the read count,
// carry over from the previous segment.
func (s *segScanner) open(f *os.File) {
	s.f, s.off, s.buf, s.size = f, 0, nil, 0
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
			s.ring.returned++
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
	chunk, err := s.ring.swap(n)
	if err != nil {
		return false, err
	}
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

// chunkRing is a scanner's supply of read chunks. Records are counted as the
// scanner hands them out, and the owner releases them in the same order by
// count; a retired chunk is reused once every record sliced from it is
// released, so a reader whose caller keeps up cycles through two or three
// chunks however long the log. Until released — or until close — a chunk's
// bytes stay put. Chunks come from disk.MapZeroed and are never zeroed
// again: a reused chunk is overwritten by the read that refills it.
type chunkRing struct {
	cur      []byte    // the chunk buf points into
	retired  []retired // oldest first
	free     [][]byte
	mapped   [][]byte // every chunk the ring owns, for close
	returned uint64   // records handed out
	released uint64   // records the owner holds no payload of
}

// retired is a chunk no longer read into, reusable once released reaches
// last: the records handed out by the time it was retired.
type retired struct {
	buf  []byte
	last uint64
}

// swap retires the current chunk and returns one of n bytes to read into: a
// released chunk if one is large enough, else a new mapping of at least
// maxChunk bytes. The retired chunk stays intact until after the refill has
// copied the carried-over bytes out of it.
func (r *chunkRing) swap(n int) ([]byte, error) {
	k := 0
	for k < len(r.retired) && r.retired[k].last <= r.released {
		r.free = append(r.free, r.retired[k].buf)
		k++
	}
	r.retired = append(r.retired[:0], r.retired[k:]...)
	var chunk []byte
	for i, c := range r.free {
		if len(c) >= n {
			chunk = c
			r.free = append(r.free[:i], r.free[i+1:]...)
			break
		}
	}
	if chunk == nil {
		var err error
		if chunk, err = disk.MapZeroed(max(n, maxChunk)); err != nil {
			return nil, err
		}
		r.mapped = append(r.mapped, chunk)
	}
	if r.cur != nil {
		r.retired = append(r.retired, retired{r.cur, r.returned})
	}
	r.cur = chunk
	return chunk[:n], nil
}

// release marks the first n records handed out as no longer held.
func (r *chunkRing) release(n uint64) {
	r.released = max(r.released, min(n, r.returned))
}

// close unmaps every chunk; no payload the ring handed out may be read
// afterwards.
func (r *chunkRing) close() {
	for _, c := range r.mapped {
		disk.Unmap(c) //nolint:errcheck // a failed munmap only leaks the range
	}
	*r = chunkRing{returned: r.returned, released: r.returned}
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
