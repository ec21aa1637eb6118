package replication

import (
	"bytes"
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
