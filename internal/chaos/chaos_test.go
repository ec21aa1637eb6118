package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

func TestRandReplayableAndSiteKeyed(t *testing.T) {
	a := NewRand(42, "replink#0")
	b := NewRand(42, "replink#0")
	c := NewRand(42, "replink#1")
	var diverged bool
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av != bv {
			t.Fatalf("draw %d: same (seed, site) diverged: %d vs %d", i, av, bv)
		}
		if av != cv {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("distinct sites produced identical streams")
	}
}

func TestConnSeverMidFrame(t *testing.T) {
	pc, sc := net.Pipe()
	wc := WrapConn(pc, 11, "replink", ConnFaults{SeverAfterBytes: 10})
	recvd := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(sc)
		recvd <- data
	}()
	if _, err := wc.Write(bytes.Repeat([]byte{0xAB}, 8)); err != nil {
		t.Fatalf("write under threshold: %v", err)
	}
	n, err := wc.Write(bytes.Repeat([]byte{0xCD}, 8))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write: got %v, want ErrInjected", err)
	}
	if n != 2 {
		t.Fatalf("severed write landed %d bytes, want 2", n)
	}
	if _, err := wc.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after sever: got %v", err)
	}
	got := <-recvd
	want := append(bytes.Repeat([]byte{0xAB}, 8), 0xCD, 0xCD)
	if !bytes.Equal(got, want) {
		t.Fatalf("peer saw %x, want %x (prefix then cut)", got, want)
	}
}

func TestConnDropLosesOneWrite(t *testing.T) {
	pc, sc := net.Pipe()
	wc := WrapConn(pc, 13, "replink/drop", ConnFaults{DropProb: 1})
	done := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(sc)
		done <- data
	}()
	n, err := wc.Write([]byte{1, 2, 3})
	if err != nil || n != 3 {
		t.Fatalf("dropped write must report success, got n=%d err=%v", n, err)
	}
	if wc.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", wc.Injected())
	}
	pc.Close()
	if got := <-done; len(got) != 0 {
		t.Fatalf("peer received %x, want nothing", got)
	}
}
