package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The double-backup organization (Salem and Garcia-Molina [29], Section 3.2):
// two checkpoint image files alternate so that at all times at least one
// holds a complete consistent image. Every atomic object has a fixed slot,
// so dirty objects can be updated in place with offset-sorted writes.
//
// Image layout: one 512-byte header followed by n fixed-size object slots.
//
//	header: magic "MMCK" | version u8 | objects u32 | objSize u32 |
//	        epoch u64 | asOfTick u64 | complete u8 | crc32 u32
//
// The header is written twice per checkpoint: once with complete=0 before
// any data (so a crash mid-write invalidates the image) and once with
// complete=1 after all data and a sync (commit point).

const (
	// HeaderSize is the reserved image header area (one disk sector).
	HeaderSize = 512
	// headerLen is how much of the reserved area the header uses; the rest
	// is written as zeros and never read.
	headerLen = 34

	backupVersion = 1
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

func (h Header) encode() []byte {
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
	crc := crc32.ChecksumIEEE(buf[:30])
	binary.LittleEndian.PutUint32(buf[30:], crc)
	return buf
}

// decodeHeader parses the header at the start of buf. It accepts only what
// encode writes: a header it returns re-encodes to buf's first headerLen
// bytes.
func decodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < headerLen || [4]byte(buf[:4]) != backupMagic {
		return h, ErrNoImage
	}
	if buf[4] != backupVersion {
		return h, fmt.Errorf("disk: unsupported backup version %d", buf[4])
	}
	if crc := crc32.ChecksumIEEE(buf[:30]); crc != binary.LittleEndian.Uint32(buf[30:]) || buf[29] > 1 {
		return h, ErrNoImage
	}
	h.Objects = binary.LittleEndian.Uint32(buf[5:])
	h.ObjSize = binary.LittleEndian.Uint32(buf[9:])
	h.Epoch = binary.LittleEndian.Uint64(buf[13:])
	h.AsOfTick = binary.LittleEndian.Uint64(buf[21:])
	h.Complete = buf[29] == 1
	return h, nil
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

// WriteHeader writes and syncs the image header.
func (b *Backup) WriteHeader(h Header) error {
	h.Objects = uint32(b.objects)
	h.ObjSize = uint32(b.objSize)
	if _, err := b.dev.WriteAt(h.encode(), 0); err != nil {
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
	buf := make([]byte, HeaderSize)
	if _, err := b.dev.ReadAt(buf, 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Header{}, ErrNoImage
		}
		return Header{}, fmt.Errorf("disk: read backup header: %w", err)
	}
	h, err := decodeHeader(buf)
	if err != nil {
		return Header{}, err
	}
	if h.Objects != uint32(b.objects) || h.ObjSize != uint32(b.objSize) {
		return Header{}, fmt.Errorf("disk: backup geometry %dx%d does not match %dx%d",
			h.Objects, h.ObjSize, b.objects, b.objSize)
	}
	return h, nil
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

// ReadInto reads the whole image's object data into buf, which must hold
// objects×objSize bytes.
func (b *Backup) ReadInto(buf []byte) error {
	if len(buf) != b.objects*b.objSize {
		return fmt.Errorf("disk: buffer %d bytes, image holds %d", len(buf), b.objects*b.objSize)
	}
	// Read in 1 MiB chunks so throttled devices account realistically.
	const chunk = 1 << 20
	off := int64(HeaderSize)
	for done := 0; done < len(buf); {
		end := done + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if _, err := b.dev.ReadAt(buf[done:end], off); err != nil {
			return err
		}
		off += int64(end - done)
		done = end
	}
	return nil
}

// Sync flushes the device.
func (b *Backup) Sync() error { return b.dev.Sync() }
