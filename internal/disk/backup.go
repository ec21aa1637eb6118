package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
)

// The double-backup organization (Salem and Garcia-Molina [29], Section 3.2):
// two checkpoint image files alternate so that at all times at least one
// holds a complete consistent image. Every atomic object has a fixed slot,
// so dirty objects can be updated in place with offset-sorted writes.
//
// Image layout: one 512-byte header followed by n fixed-size object slots.
//
//	header v1: magic "MMCK" | version u8 | objects u32 | objSize u32 |
//	           epoch u64 | asOfTick u64 | complete u8 | crc32 u32
//	header v2: the v1 fields, version 2 | grain u8 | mapLen u16 |
//	           mapLen bytes of populated map
//
// The crc32 sits at byte 30 in both versions; in v2 it also covers the
// grain, the length and the map. The populated map (see Populated) has one
// bit per 2^grain bitmap words of 64 objects, set where the image may hold a
// non-zero byte. An image whose map has every bit set gets a v1 header, so a
// fully populated image's header reads the same in both versions.
//
// The header is written twice per checkpoint: once with complete=0 before
// any data (so a crash mid-write invalidates the image) and once with
// complete=1 after all data and a sync (commit point). Both carry the same
// map, which bounds what the file holds for the whole flush.

const (
	// HeaderSize is the reserved image header area (one disk sector).
	HeaderSize = 512
	// headerLen is how much of the reserved area a v1 header uses; the rest
	// is written as zeros and never read.
	headerLen = 34
	// mapOff is where a v2 header's map starts, after its grain and length.
	mapOff = headerLen + 3
	// maxMapBytes bounds a v2 map: 3,776 bits, so an image of up to 3,776
	// bitmap words maps one word per bit.
	maxMapBytes = 472

	backupVersion = 1
	mapVersion    = 2
)

var backupMagic = [4]byte{'M', 'M', 'C', 'K'}

// ErrNoImage indicates the device holds no valid backup header.
var ErrNoImage = errors.New("disk: no valid backup image")

// Header describes a checkpoint image.
type Header struct {
	// Objects and ObjSize fix the image geometry.
	Objects uint32
	ObjSize uint32
	// Epoch is a monotonically increasing checkpoint number; recovery picks
	// the complete image with the highest epoch.
	Epoch uint64
	// AsOfTick is the tick at whose end the image is consistent.
	AsOfTick uint64
	// Complete marks a fully-written image.
	Complete bool
}

// Populated is an image's populated map as its header records it: bit i
// covers the bitmap words [i<<grain, (i+1)<<grain), word w being the
// objects [64w, 64w+64), and is set when the image may hold a non-zero byte
// there. The slots of a clear bit read as zeros. The zero Populated is the
// full map, every word: what a v1 header, or no header, says.
type Populated struct {
	grain uint8
	bits  []byte // nil: every word
}

// Full reports whether the map covers every word.
func (p Populated) Full() bool { return p.bits == nil }

// Has reports whether the image may hold a non-zero byte in word w, a word
// of the image.
func (p Populated) Has(w int) bool {
	if p.bits == nil {
		return true
	}
	i := w >> p.grain
	return p.bits[i>>3]&(1<<(i&7)) != 0
}

// EachRun calls fn for each maximal run [start, end) of the objects in
// [lo, hi) that lie in words p covers, in ascending order, and stops at fn's
// first error: the restore's and the image transfer's run walker.
func (p Populated) EachRun(lo, hi int, fn func(start, end int) error) error {
	for start := lo; start < hi; {
		if !p.Has(start >> 6) {
			start = (start>>6 + 1) << 6
			continue
		}
		end := start
		for end < hi && p.Has(end>>6) {
			end = (end>>6 + 1) << 6
		}
		end = min(end, hi)
		if err := fn(start, end); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Words returns the number of bitmap words of an image of objects objects.
func Words(objects int) int { return (objects + 63) / 64 }

// mapShape returns the grain and the bit count of the map of an image of
// words words: the smallest power-of-two number of words per bit that fits
// the header.
func mapShape(words int) (grain uint8, nbits int) {
	for (words+1<<grain-1)>>grain > maxMapBytes*8 {
		grain++
	}
	return grain, (words + 1<<grain - 1) >> grain
}

// newPopulated coarsens a word map of an image of objects objects, bit w of
// words set when word w may hold a non-zero byte, to the header's grain. A
// map whose every bit ends up set is the full map.
func newPopulated(objects int, words []uint64) Populated {
	grain, nbits := mapShape(Words(objects))
	m := make([]byte, (nbits+7)/8)
	set := 0
	for k, x := range words {
		for ; x != 0; x &= x - 1 {
			i := (k<<6 + bits.TrailingZeros64(x)) >> grain
			if i >= nbits {
				break
			}
			if m[i>>3]&(1<<(i&7)) == 0 {
				m[i>>3] |= 1 << (i & 7)
				set++
			}
		}
	}
	if set == nbits {
		return Populated{}
	}
	return Populated{grain: grain, bits: m}
}

// encode lays out the header with map p: v1 when p is full, else v2.
func (h Header) encode(p Populated) []byte {
	buf := make([]byte, HeaderSize)
	copy(buf, backupMagic[:])
	buf[4] = backupVersion
	binary.LittleEndian.PutUint32(buf[5:], h.Objects)
	binary.LittleEndian.PutUint32(buf[9:], h.ObjSize)
	binary.LittleEndian.PutUint64(buf[13:], h.Epoch)
	binary.LittleEndian.PutUint64(buf[21:], h.AsOfTick)
	if h.Complete {
		buf[29] = 1
	}
	if !p.Full() {
		buf[4] = mapVersion
		buf[headerLen] = p.grain
		binary.LittleEndian.PutUint16(buf[headerLen+1:], uint16(len(p.bits)))
		copy(buf[mapOff:], p.bits)
	}
	binary.LittleEndian.PutUint32(buf[30:], headerCRC(buf, len(p.bits)))
	return buf
}

// headerCRC checksums the fixed fields and, for a v2 header, the grain, the
// length and the mapLen map bytes.
func headerCRC(buf []byte, mapLen int) uint32 {
	crc := crc32.ChecksumIEEE(buf[:30])
	if buf[4] == mapVersion {
		crc = crc32.Update(crc, crc32.IEEETable, buf[headerLen:mapOff+mapLen])
	}
	return crc
}

// decodeHeader parses the header at the start of buf and its populated map.
// It accepts only what encode writes: a header and map it returns re-encode
// to buf's leading bytes (headerLen of them for v1, through the map for v2).
// A v2 map's length is checked against the header room before anything is
// read from it, and its grain and length must be the ones its geometry
// gives.
func decodeHeader(buf []byte) (Header, Populated, error) {
	var h Header
	if len(buf) < headerLen || [4]byte(buf[:4]) != backupMagic {
		return h, Populated{}, ErrNoImage
	}
	mapLen := 0
	switch buf[4] {
	case backupVersion:
	case mapVersion:
		if len(buf) < mapOff {
			return h, Populated{}, ErrNoImage
		}
		mapLen = int(binary.LittleEndian.Uint16(buf[headerLen+1:]))
		if mapLen > maxMapBytes || len(buf) < mapOff+mapLen {
			return h, Populated{}, ErrNoImage
		}
	default:
		return h, Populated{}, fmt.Errorf("disk: unsupported backup version %d", buf[4])
	}
	if headerCRC(buf, mapLen) != binary.LittleEndian.Uint32(buf[30:]) || buf[29] > 1 {
		return h, Populated{}, ErrNoImage
	}
	objects := binary.LittleEndian.Uint32(buf[5:])
	var p Populated
	if buf[4] == mapVersion {
		grain, nbits := mapShape(Words(int(objects)))
		m := buf[mapOff : mapOff+mapLen]
		if buf[headerLen] != grain || mapLen != (nbits+7)/8 || !validMap(m, nbits) {
			return h, Populated{}, ErrNoImage
		}
		p = Populated{grain: grain, bits: bytes.Clone(m)}
	}
	h.Objects = objects
	h.ObjSize = binary.LittleEndian.Uint32(buf[9:])
	h.Epoch = binary.LittleEndian.Uint64(buf[13:])
	h.AsOfTick = binary.LittleEndian.Uint64(buf[21:])
	h.Complete = buf[29] == 1
	return h, p, nil
}

// validMap reports whether m is a map encode writes for nbits bits: no bit
// set past nbits, and not every bit set (a full map is written as v1).
func validMap(m []byte, nbits int) bool {
	set := 0
	for i, b := range m {
		if i == len(m)-1 && nbits&7 != 0 && b>>(nbits&7) != 0 {
			return false
		}
		set += bits.OnesCount8(b)
	}
	return set < nbits
}

// Backup is one checkpoint image on a device.
type Backup struct {
	dev     Device
	objects int
	objSize int
}

// NewBackup frames a backup image of the given geometry over dev.
func NewBackup(dev Device, objects, objSize int) (*Backup, error) {
	if objects <= 0 || objSize <= 0 {
		return nil, fmt.Errorf("disk: invalid backup geometry %dx%d", objects, objSize)
	}
	return &Backup{dev: dev, objects: objects, objSize: objSize}, nil
}

// Objects returns the number of object slots.
func (b *Backup) Objects() int { return b.objects }

// ObjSize returns the object slot size.
func (b *Backup) ObjSize() int { return b.objSize }

// offset returns the device offset of an object slot.
func (b *Backup) offset(idx int) int64 {
	return HeaderSize + int64(idx)*int64(b.objSize)
}

// WriteHeader writes and syncs the image header of a fully populated image.
func (b *Backup) WriteHeader(h Header) error { return b.WriteHeaderMap(h, nil) }

// WriteHeaderMap writes and syncs the image header with its populated map:
// bit w of words set when word w may hold a non-zero byte, nil for every
// word (see newPopulated).
func (b *Backup) WriteHeaderMap(h Header, words []uint64) error {
	var p Populated
	if words != nil {
		p = newPopulated(b.objects, words)
	}
	return b.writeHeader(h, p)
}

// writeHeader writes and syncs the image header with map p.
func (b *Backup) writeHeader(h Header, p Populated) error {
	h.Objects = uint32(b.objects)
	h.ObjSize = uint32(b.objSize)
	if _, err := b.dev.WriteAt(h.encode(p), 0); err != nil {
		return err
	}
	return b.dev.Sync()
}

// ReadHeader reads and validates the image header. It returns ErrNoImage for
// a fresh or torn image (including a device shorter than one header — a file
// that was never written). Real device read failures are propagated, so
// recovery can distinguish "no image here" from "this backup is unreadable"
// and degrade to the other backup.
func (b *Backup) ReadHeader() (Header, error) {
	h, _, err := b.ReadHeaderMap()
	return h, err
}

// ReadHeaderMap is ReadHeader that also returns the image's populated map.
func (b *Backup) ReadHeaderMap() (Header, Populated, error) {
	buf := make([]byte, HeaderSize)
	if _, err := b.dev.ReadAt(buf, 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Header{}, Populated{}, ErrNoImage
		}
		return Header{}, Populated{}, fmt.Errorf("disk: read backup header: %w", err)
	}
	return b.decodeFor(buf)
}

// decodeFor parses buf as the header of an image of b's geometry, with its
// populated map.
func (b *Backup) decodeFor(buf []byte) (Header, Populated, error) {
	h, p, err := decodeHeader(buf)
	if err == nil && (h.Objects != uint32(b.objects) || h.ObjSize != uint32(b.objSize)) {
		err = fmt.Errorf("disk: backup geometry %dx%d does not match %dx%d",
			h.Objects, h.ObjSize, b.objects, b.objSize)
	}
	if err != nil {
		return Header{}, Populated{}, err
	}
	return h, p, nil
}

// Image is a complete image read into memory to be shipped: its header
// block, the header and map it encodes, and the objects of every word the
// map covers, in object order. The zero Image (nil Block) is no image.
type Image struct {
	Block  []byte
	Header Header
	Map    Populated
	Data   []byte
}

// ReadImage reads b's complete image into memory; nothing may write b
// meanwhile.
func (b *Backup) ReadImage() (Image, error) {
	h, p, err := b.ReadHeaderMap()
	if err == nil && !h.Complete {
		err = errors.New("disk: backup image is not complete")
	}
	im := Image{Block: h.encode(p), Header: h, Map: p}
	if err == nil {
		err = p.EachRun(0, b.objects, func(start, end int) error {
			n, k := len(im.Data), (end-start)*b.objSize
			im.Data = slices.Grow(im.Data, k)[:n+k]
			return b.ReadRun(start, im.Data[n:])
		})
	}
	return im, err
}

// Install lands an image that arrives piece by piece, a shipped one, on b
// in the order a checkpoint commits one: block's header marked incomplete,
// the runs of the words its map covers in ascending order, end's check, a
// sync, the header marked complete — so a failure at any step leaves b
// without a complete image. block must be the header block of a complete
// image of b's geometry. run returns the next whole objects from start on,
// at most max of them. It returns the installed header.
func (b *Backup) Install(block []byte, run func(start, max int) ([]byte, error), end func() error) (Header, error) {
	h, p, err := b.decodeFor(block)
	if err == nil && (len(block) != HeaderSize || !h.Complete) {
		err = fmt.Errorf("disk: install of a %d-byte header block, complete=%v", len(block), h.Complete)
	}
	if err != nil {
		return h, err
	}
	h.Complete = false
	if err := b.writeHeader(h, p); err != nil {
		return h, err
	}
	err = p.EachRun(0, b.objects, func(start, stop int) error {
		for start < stop {
			data, err := run(start, stop-start)
			if err != nil {
				return err
			}
			n := len(data) / b.objSize
			if n == 0 || n > stop-start || len(data)%b.objSize != 0 {
				return fmt.Errorf("disk: install run of %d bytes at object %d, inside [%d, %d)", len(data), start, start, stop)
			}
			if err := b.WriteRun(start, data); err != nil {
				return err
			}
			start += n
		}
		return nil
	})
	if h.Complete = true; err == nil {
		err = end()
	}
	if err == nil {
		err = b.Sync()
	}
	if err == nil {
		err = b.writeHeader(h, p)
	}
	return h, err
}

// Blank reports whether the device holds no byte past the image header, so
// every slot reads as zeros once a write extends the file past it. A device
// that zero-fills reads past its end (Mem) is never blank.
func (b *Backup) Blank() bool {
	var one [1]byte
	n, err := b.dev.ReadAt(one[:], HeaderSize)
	return n == 0 && errors.Is(err, io.EOF)
}

// WriteRun writes a contiguous run of object slots starting at startObj.
// data must be a whole number of objects. Runs are how the sorted-write
// optimization coalesces adjacent dirty sectors. Concurrent WriteRun (and
// WriteRunVec) calls on disjoint runs are safe — the engine's per-shard
// checkpoint flushers write disjoint regions of one backup in parallel.
func (b *Backup) WriteRun(startObj int, data []byte) error {
	if len(data)%b.objSize != 0 {
		return fmt.Errorf("disk: run of %d bytes is not whole objects of %d", len(data), b.objSize)
	}
	n := len(data) / b.objSize
	if startObj < 0 || startObj+n > b.objects {
		return fmt.Errorf("disk: run [%d,%d) out of %d objects", startObj, startObj+n, b.objects)
	}
	_, err := b.dev.WriteAt(data, b.offset(startObj))
	return err
}

// WriteRunVec writes one contiguous run of object slots starting at
// startObj whose bytes are scattered across several memory buffers, using
// the device's vectored fast path when it has one. The buffers together
// must hold a whole number of objects.
func (b *Backup) WriteRunVec(startObj int, bufs [][]byte) error {
	total := 0
	for _, p := range bufs {
		total += len(p)
	}
	if total%b.objSize != 0 {
		return fmt.Errorf("disk: vectored run of %d bytes is not whole objects of %d", total, b.objSize)
	}
	n := total / b.objSize
	if startObj < 0 || startObj+n > b.objects {
		return fmt.Errorf("disk: run [%d,%d) out of %d objects", startObj, startObj+n, b.objects)
	}
	_, err := WriteVAt(b.dev, bufs, b.offset(startObj))
	return err
}

// ReadRun reads a contiguous run of object slots starting at startObj into
// data, which must hold a whole number of objects. Concurrent ReadRun (and
// ReadRunVec) calls on disjoint runs are safe — the recovery pipeline's
// per-shard restore workers read disjoint regions of one backup in parallel.
func (b *Backup) ReadRun(startObj int, data []byte) error {
	if len(data)%b.objSize != 0 {
		return fmt.Errorf("disk: run of %d bytes is not whole objects of %d", len(data), b.objSize)
	}
	n := len(data) / b.objSize
	if startObj < 0 || startObj+n > b.objects {
		return fmt.Errorf("disk: run [%d,%d) out of %d objects", startObj, startObj+n, b.objects)
	}
	_, err := b.dev.ReadAt(data, b.offset(startObj))
	return err
}

// ReadRunVec fills bufs from one contiguous run of object slots starting at
// startObj, using the device's vectored fast path when it has one. The
// buffers together must hold a whole number of objects.
func (b *Backup) ReadRunVec(startObj int, bufs [][]byte) error {
	total := 0
	for _, p := range bufs {
		total += len(p)
	}
	if total%b.objSize != 0 {
		return fmt.Errorf("disk: vectored run of %d bytes is not whole objects of %d", total, b.objSize)
	}
	n := total / b.objSize
	if startObj < 0 || startObj+n > b.objects {
		return fmt.Errorf("disk: run [%d,%d) out of %d objects", startObj, startObj+n, b.objects)
	}
	_, err := ReadVAt(b.dev, bufs, b.offset(startObj))
	return err
}

// Sync flushes the device.
func (b *Backup) Sync() error { return b.dev.Sync() }
