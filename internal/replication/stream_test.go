package replication

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// The Stream primitive alone, over net.Pipe: no engine, no WAL. The peer end
// is the test itself — it drains whatever the stream sends and writes ack
// frames by hand.

const streamTestLag = 4

// newTestStream returns a started stream with a lag bound of streamTestLag
// whose peer acks "applied through tick" (normalised like Shipper does), and
// an ack function writing one such frame from the peer end.
func newTestStream(t *testing.T) (st *Stream, peer net.Conn, ack func(tick uint64)) {
	t.Helper()
	sc, pc := net.Pipe()
	st = NewStream(sc, StreamOptions{MaxLagTicks: streamTestLag})
	st.StartAcks(ftAck, func(tick uint64) uint64 { return tick + 1 })
	peerc := NewConn(pc, MaxFrameSize)
	go func() { // drain the send direction; ends when either side closes
		for {
			if _, err := peerc.ReadFrame(); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		st.Stop() //nolint:errcheck // teardown
		pc.Close()
	})
	return st, pc, func(tick uint64) {
		t.Helper()
		if err := peerc.SendU64(ftAck, tick); err != nil {
			t.Fatalf("peer ack %d: %v", tick, err)
		}
	}
}

// async runs fn on its own goroutine and returns the channel its result
// arrives on.
func async(fn func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	return ch
}

// within fails the test if ch does not deliver in time.
func within(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// stillBlocked fails the test if ch delivers. The wait is a negative check:
// a slow scheduler can only make it pass vacuously, never fail spuriously.
func stillBlocked(t *testing.T, what string, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("%s returned (%v), want it blocked", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestStreamLagGateBlocksAtBoundAndOneAckReleases(t *testing.T) {
	st, _, ack := newTestStream(t)
	// Ticks 0..3 are exactly streamTestLag in flight: none may block.
	for tick := uint64(0); tick < streamTestLag; tick++ {
		if err := within(t, "WaitLag inside the bound", async(func() error { return st.WaitLag(tick, 0) })); err != nil {
			t.Fatalf("WaitLag(%d): %v", tick, err)
		}
		if err := st.Send(append(binary.LittleEndian.AppendUint64(st.Frame(ftTick), tick), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Tick 4 would be the fifth in flight.
	gate := async(func() error { return st.WaitLag(streamTestLag, 0) })
	stillBlocked(t, "WaitLag past the bound", gate)
	ack(0)
	if err := within(t, "WaitLag after one ack", gate); err != nil {
		t.Fatalf("WaitLag released with %v", err)
	}
	if a, ok := st.Acked(); !ok || a != 0 {
		t.Fatalf("Acked() = %d, %v, want 0, true", a, ok)
	}
	// The floor bounds the window while no ack has passed it: a stream that
	// starts at tick 100 has one tick in flight when it sends tick 100.
	if err := within(t, "WaitLag at a high floor", async(func() error { return st.WaitLag(100, 100) })); err != nil {
		t.Fatal(err)
	}
}

func TestStreamPeerCloseLatchesFirstErrorAndUnblocksWaiters(t *testing.T) {
	st, peer, _ := newTestStream(t)
	gate := async(func() error { return st.WaitLag(10, 0) })
	await := async(func() error { return st.AwaitAck(0, time.Minute) })
	stillBlocked(t, "WaitLag", gate)
	stillBlocked(t, "AwaitAck", await)
	peer.Close()
	gerr := within(t, "WaitLag after peer close", gate)
	aerr := within(t, "AwaitAck after peer close", await)
	if gerr == nil || errors.Is(gerr, ErrStopped) || aerr == nil || errors.Is(aerr, ErrStopped) {
		t.Fatalf("waiters returned %v / %v, want the stream error", gerr, aerr)
	}
	first := st.Err()
	if first == nil || gerr != first || aerr != first {
		t.Fatalf("Err() = %v, waiters saw %v / %v: want one latched error", first, gerr, aerr)
	}
	st.Fail(errors.New("a later failure"))
	if st.Err() != first {
		t.Fatalf("a later failure replaced the first error: %v", st.Err())
	}
}

func TestStreamStopDuringWaitLagIsErrStopped(t *testing.T) {
	st, _, _ := newTestStream(t)
	gate := async(func() error { return st.WaitLag(10, 0) })
	stillBlocked(t, "WaitLag", gate)
	if err := st.Stop(); err != nil {
		t.Fatalf("Stop on a healthy stream: %v", err)
	}
	if err := within(t, "WaitLag after Stop", gate); !errors.Is(err, ErrStopped) {
		t.Fatalf("WaitLag returned %v, want ErrStopped", err)
	}
	if err := st.AwaitAck(0, time.Minute); !errors.Is(err, ErrStopped) {
		t.Fatalf("AwaitAck after Stop returned %v, want ErrStopped", err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("a clean Stop latched %v", err)
	}
	select {
	case <-st.Stopped():
	default:
		t.Fatal("Stopped() is still open after Stop")
	}
}

func TestStreamAckAheadOfSendDoesNotWedgeGate(t *testing.T) {
	st, _, ack := newTestStream(t)
	// A resuming peer can acknowledge far past the first tick this stream
	// sends; tick-minus-watermark must not wrap into a huge in-flight count.
	ack(100)
	if err := st.AwaitAck(100, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "WaitLag below the ack watermark", async(func() error { return st.WaitLag(5, 0) })); err != nil {
		t.Fatal(err)
	}
	if err := st.AwaitAck(101, 20*time.Millisecond); err == nil {
		t.Fatal("AwaitAck(101) returned nil with only tick 100 acknowledged")
	}
	// An ack never moves the watermark backwards. The pipe is synchronous and
	// the reader takes the next frame only after handling the last, so once
	// the second write returns the first stale ack has been processed.
	ack(7)
	ack(7)
	if a, _ := st.Acked(); a != 100 {
		t.Fatalf("Acked() = %d after a stale ack, want 100", a)
	}
}
