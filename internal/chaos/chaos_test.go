package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/disk"
)

func TestRandReplayableAndSiteKeyed(t *testing.T) {
	a := NewRand(42, "disk/a")
	b := NewRand(42, "disk/a")
	c := NewRand(42, "disk/b")
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

func TestDeviceWriteBudgetTears(t *testing.T) {
	mem := disk.NewMem()
	d := WrapDevice(mem, 1, "disk/a", DeviceFaults{WriteBudget: 10})
	if _, err := d.WriteAt(bytes.Repeat([]byte{0xAA}, 8), 0); err != nil {
		t.Fatalf("write under budget: %v", err)
	}
	n, err := d.WriteAt(bytes.Repeat([]byte{0xBB}, 8), 8)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("budget-crossing write: got %v, want ErrInjected", err)
	}
	if n != 2 {
		t.Fatalf("torn write landed %d bytes, want 2 (the remaining budget)", n)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Site != "disk/a" || ce.Op != "write" {
		t.Fatalf("want typed *Error{disk/a, write}, got %#v", err)
	}
	got := make([]byte, 12)
	if _, err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xAA}, 8), 0xBB, 0xBB, 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("underlying bytes = %x, want %x", got, want)
	}
	if _, err := d.WriteAt([]byte{1}, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after death: got %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after death: got %v", err)
	}
	if _, err := d.ReadAt(got[:1], 0); err != nil {
		t.Fatalf("reads must survive a dead writer: %v", err)
	}
	// The death is one fault, however many ops hit the dead device after it.
	if got := d.Injected(); got != 1 {
		t.Fatalf("Injected() = %d after one death and two post-death ops, want 1", got)
	}
}

func TestDeviceNthOpReplayable(t *testing.T) {
	run := func() []bool {
		d := WrapDevice(disk.NewMem(), 7, "disk/b", DeviceFaults{
			WriteErrEvery: 3, WriteErrProb: 0.2, TornWrites: true,
		})
		outcomes := make([]bool, 12)
		for i := range outcomes {
			_, err := d.WriteAt([]byte{1, 2, 3, 4}, 0)
			outcomes[i] = err != nil
			if i == 2 && !errors.Is(err, ErrInjected) {
				t.Fatalf("3rd write must fault (WriteErrEvery=3), got %v", err)
			}
		}
		return outcomes
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d: replay diverged (%v vs %v)", i, first[i], second[i])
		}
	}
}

func TestDeviceBitFlipOnSyncFail(t *testing.T) {
	mem := disk.NewMem()
	d := WrapDevice(mem, 3, "disk/c", DeviceFaults{SyncErrProb: 1, BitFlipOnSyncFail: true})
	payload := bytes.Repeat([]byte{0xFF}, 16)
	if _, err := d.WriteAt(payload, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: got %v, want ErrInjected", err)
	}
	got := make([]byte, 16)
	if _, err := mem.ReadAt(got, 4); err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for i := range got {
		for bit := 0; bit < 8; bit++ {
			if got[i]&(1<<bit) != payload[i]&(1<<bit) {
				flipped++
			}
		}
	}
	if flipped != 1 {
		t.Fatalf("%d bits flipped in the unsynced range, want exactly 1", flipped)
	}
}

func TestDeviceStall(t *testing.T) {
	var stalls int
	d := WrapDevice(disk.NewMem(), 5, "disk/d", DeviceFaults{StallProb: 1, Stall: time.Second})
	d.SetSleep(func(time.Duration) { stalls++ })
	if _, err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	if stalls != 2 {
		t.Fatalf("stalls = %d, want 2", stalls)
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
	if !wc.Severed() {
		t.Fatal("conn not marked severed")
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

func TestListenerSubstreamsPerAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := WrapListener(ln, 17, "cluster/node0", ConnFaults{})
	defer wl.Close()
	go func() {
		for i := 0; i < 2; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	c0, err := wl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := wl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	s0, s1 := c0.(*Conn).site, c1.(*Conn).site
	if s0 != "cluster/node0#0" || s1 != "cluster/node0#1" {
		t.Fatalf("accepted sites = %q, %q", s0, s1)
	}
}
