package replication

import (
	"bytes"
	"runtime"
	"testing"
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

// FuzzRecvSnapshot feeds arbitrary frame bodies to the bootstrap receiver a
// fresh standby runs, with a 64-byte state. The input is split into bodies,
// each behind a one-byte length, and each body is framed. recvSnapshot must
// never panic; it allocates nothing the input cannot back before the
// image's length field is checked against the state size (only the read
// buffer, bounded as in FuzzConnReadFrame, and the checked image); and an
// image it accepts, re-sent through sendSnapshot, reads back as the same
// (nextTick, snap). The seeds are checked in under testdata/fuzz: valid
// images in one and two chunks, a wrong and a huge total, chunks out of
// order or past the total, a short image, no end frame, an end frame
// first, a tick frame mid-image, an empty body.
func FuzzRecvSnapshot(f *testing.F) {
	const want = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			in = append(in, rawFrame(data[1:1+n])...)
			data = data[1+n:]
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, snap, err := recvSnapshot(NewConn(&scriptConn{in: in, chunk: len(in) + 1}, MaxFrameSize), want)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(2*len(in)+growStep+want+1<<20) {
			t.Fatalf("allocated %d bytes reading %d", alloc, len(in))
		}
		if err != nil {
			return
		}
		rec := &scriptConn{}
		if err := sendSnapshot(NewConn(rec, MaxFrameSize), next, snap); err != nil {
			t.Fatal(err)
		}
		resent := bytes.Join(rec.writes, nil)
		next2, snap2, err := recvSnapshot(NewConn(&scriptConn{in: resent, chunk: len(resent)}, MaxFrameSize), want)
		if err != nil || next2 != next || !bytes.Equal(snap2, snap) {
			t.Fatalf("re-sent image read back as (%d, %x), %v; want (%d, %x)", next2, snap2, err, next, snap)
		}
	})
}
