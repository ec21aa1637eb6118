package replication

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/disk"
)

// FuzzHandshake feeds an arbitrary hello body, correctly framed, to the
// geometry check every standby session opens with. hello.expect must never
// panic, and it accepts exactly the bytes hello.send writes for the local
// geometry — any other magic, version, geometry, type or length is refused.
// The seeds are checked in under testdata/fuzz: the valid hello, the
// welcome, the previous protocol version, a different geometry, short and
// long bodies.
func FuzzHandshake(f *testing.F) {
	local := hello{objects: 4096, objSize: 512, cellSize: 4}
	rec := &scriptConn{}
	if err := local.send(NewConn(rec, MaxFrameSize), ftHello); err != nil {
		f.Fatal(err)
	}
	want := rec.writes[0][frameHeader:]
	f.Fuzz(func(t *testing.T, body []byte) {
		in := &scriptConn{in: rawFrame(body), chunk: frameHeader + len(body)}
		err := local.expect(NewConn(in, MaxFrameSize), ftHello)
		if accepted := err == nil; accepted != bytes.Equal(body, want) {
			t.Fatalf("expect(%x) = %v, want accepted=%v", body, err, !accepted)
		}
	})
}

// Fuzzed images have 256 objects of 8 bytes: four bitmap words, so a
// header's populated map can cover any subset of them.
const fuzzObjects, fuzzObjSize = 256, 8

// fuzzBackup frames a backup of the fuzzed geometry over dev.
func fuzzBackup(t *testing.T, dev disk.Device) *disk.Backup {
	b, err := disk.NewBackup(dev, fuzzObjects, fuzzObjSize)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// memBytes returns everything written to dev.
func memBytes(dev *disk.Mem) []byte {
	b := make([]byte, dev.Len())
	dev.ReadAt(b, 0) //nolint:errcheck // Mem reads cannot fail
	return b
}

// FuzzRecvImage feeds arbitrary frame bodies to the bootstrap receiver a
// fresh standby runs, landing on an in-memory backup of 256 objects. The
// input is split into bodies, each behind a two-byte length, and each body
// is framed. recvImage must never panic; it allocates nothing a length field
// sizes before that field is checked against the geometry (only the read
// buffer, bounded as in FuzzConnReadFrame, the header and what the device
// holds); and an image it accepts, read back off the backup and re-sent
// through sendImage onto a second backup, lands byte-identical. The seeds
// are checked in under testdata/fuzz: valid sparse and full images, no
// image, a run outside the populated map, runs out of order, a run past the
// geometry, a run at a huge object, a header of the wrong geometry, an end
// before the last run, no end, a tick frame mid-image, an empty body.
func FuzzRecvImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []byte
		for len(data) >= 2 {
			n := min(int(binary.LittleEndian.Uint16(data)), len(data)-2)
			in = append(in, rawFrame(data[2:2+n])...)
			data = data[2+n:]
		}
		dev := disk.NewMem()
		b := fuzzBackup(t, dev)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, n, err := recvImage(NewConn(&scriptConn{in: in, chunk: len(in) + 1}, MaxFrameSize), b)
		runtime.ReadMemStats(&after)
		frames := len(in)/frameHeader + 1
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(2*len(in)+growStep+frames*(disk.HeaderSize+fuzzObjects*fuzzObjSize)+1<<20) {
			t.Fatalf("allocated %d bytes reading %d", alloc, len(in))
		}
		if err != nil {
			return
		}
		var img disk.Image
		if dev.Len() > 0 {
			if img, err = b.ReadImage(); err != nil {
				t.Fatalf("accepted image reads back as %v", err)
			}
		}
		rec := &scriptConn{}
		if err := sendImage(NewConn(rec, MaxFrameSize), img); err != nil {
			t.Fatal(err)
		}
		resent := bytes.Join(rec.writes, nil)
		dev2 := disk.NewMem()
		next2, n2, err := recvImage(NewConn(&scriptConn{in: resent, chunk: len(resent)}, MaxFrameSize), fuzzBackup(t, dev2))
		if err != nil || next2 != next || n2 != n || !bytes.Equal(memBytes(dev2), memBytes(dev)) {
			t.Fatalf("re-sent image landed as (%d, %d bytes), %v; want (%d, %d bytes) and the same device bytes", next2, n2, err, next, n)
		}
	})
}
