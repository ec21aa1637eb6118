package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/session"
	"repro/internal/wal"
)

// The wrappers sit on the program's public seams (Options.DeviceFactory,
// net.Conn, session.World). They count and time; they never change what the
// program does: TestWrappersLeaveSameBytes compares the files a wrapped and
// an unwrapped run leave behind.

// deviceStats is what every backup device of one run did. The engine's
// parallel flushers and the recovery pipeline's restore readers call one
// device from several goroutines, hence the atomics.
type deviceStats struct {
	writeCalls, writeBytes, writeNs atomic.Int64
	syncs, syncNs                   atomic.Int64
	readBytes, readNs               atomic.Int64
}

// deviceTotals is one reading of deviceStats.
type deviceTotals struct {
	writeCalls, writeBytes, writeNs, syncs, syncNs, readBytes, readNs int64
}

// totals reads the counters; a nil deviceStats (an untraced run) reads zero.
func (s *deviceStats) totals() deviceTotals {
	if s == nil {
		return deviceTotals{}
	}
	return deviceTotals{
		writeCalls: s.writeCalls.Load(), writeBytes: s.writeBytes.Load(), writeNs: s.writeNs.Load(),
		syncs: s.syncs.Load(), syncNs: s.syncNs.Load(),
		readBytes: s.readBytes.Load(), readNs: s.readNs.Load(),
	}
}

// factory is an engine.Options.DeviceFactory that opens the regular file
// device and counts what is done to it.
func (s *deviceStats) factory(path string) (disk.Device, error) {
	f, err := disk.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &countingDevice{dev: f, st: s}, nil
}

// countingDevice implements disk.Device and both vectored fast paths.
// Without WriteVAt and ReadVAt here, disk.WriteVAt and disk.ReadVAt would
// fall back to one call per buffer and the run would measure another program
// than the one that ships.
type countingDevice struct {
	dev disk.Device
	st  *deviceStats
}

var (
	_ disk.Device       = (*countingDevice)(nil)
	_ disk.VectorWriter = (*countingDevice)(nil)
	_ disk.VectorReader = (*countingDevice)(nil)
)

func (d *countingDevice) wrote(n int, t0 time.Time) {
	d.st.writeCalls.Add(1)
	d.st.writeBytes.Add(int64(n))
	d.st.writeNs.Add(int64(time.Since(t0)))
}

func (d *countingDevice) read(n int, t0 time.Time) {
	d.st.readBytes.Add(int64(n))
	d.st.readNs.Add(int64(time.Since(t0)))
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := d.dev.ReadAt(p, off)
	d.read(n, t0)
	return n, err
}

func (d *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := d.dev.WriteAt(p, off)
	d.wrote(n, t0)
	return n, err
}

func (d *countingDevice) WriteVAt(bufs [][]byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := disk.WriteVAt(d.dev, bufs, off)
	d.wrote(n, t0)
	return n, err
}

func (d *countingDevice) ReadVAt(bufs [][]byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := disk.ReadVAt(d.dev, bufs, off)
	d.read(n, t0)
	return n, err
}

func (d *countingDevice) Sync() error {
	t0 := time.Now()
	err := d.dev.Sync()
	d.st.syncs.Add(1)
	d.st.syncNs.Add(int64(time.Since(t0)))
	return err
}

func (d *countingDevice) Close() error { return d.dev.Close() }

// meteredConn counts the bytes that cross a connection and, on the side that
// reads requests, tells when the reader has taken everything it was sent.
//
// ServeConn's reader loop is: read a frame, stage its intents, read again.
// When it re-enters Read having consumed n bytes, every frame inside the
// first n bytes has been staged. The client knows how many bytes it has
// written, so "the server staged all my intents" is an event to wait for and
// tcp-engine is a closed loop without a sleep or an extra protocol message.
type meteredConn struct {
	net.Conn
	written atomic.Int64

	mu       sync.Mutex
	consumed int64         // bytes Read has returned
	idleAt   int64         // consumed at the latest entry into Read
	wake     chan struct{} // closed and replaced at every entry into Read
}

func newMeteredConn(c net.Conn) *meteredConn {
	return &meteredConn{Conn: c, idleAt: -1, wake: make(chan struct{})}
}

func (c *meteredConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.idleAt = c.consumed
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.consumed += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// awaitConsumed blocks until the reader has re-entered Read with at least
// target bytes consumed, or the timeout passes.
func (c *meteredConn) awaitConsumed(target int64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		at, wake := c.idleAt, c.wake
		c.mu.Unlock()
		if at >= target {
			return nil
		}
		select {
		case <-wake:
		case <-deadline.C:
			return fmt.Errorf("reader consumed %d of %d bytes within %v", at, target, timeout)
		}
	}
}

// timedWorld times World.Tick, the boundary between the session tier and
// whatever applies the tick (a cluster or one engine).
type timedWorld struct {
	session.World
	start, end time.Time // the latest Tick call
}

func (w *timedWorld) Tick(batch []wal.Update) error {
	w.start = time.Now()
	err := w.World.Tick(batch)
	w.end = time.Now()
	return err
}
