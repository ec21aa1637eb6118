package replication

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Network guards: bounded dial, accept and read waits for the raw-TCP
// deployments (cmd/replicate, cmd/cluster). The library core stays
// deadline-free — net.Pipe has no deadlines and the one reconnect
// supervisor (supervise, under the Shipper and the Standby) bounds waits
// its own way — but a real socket to a dead or partitioned peer can
// otherwise hang a process forever on a blocking Accept or a mid-stream
// read. Every guard surfaces the same typed
// *NetTimeoutError, so callers can distinguish "the peer is slow or gone"
// (retryable, a resilient session redials) from a protocol failure.

// NetTimeoutError reports a network wait that exceeded its deadline.
type NetTimeoutError struct {
	Op   string // "dial", "accept" or "read"
	Addr string // remote (dial) or local (accept/read) address
	Wait time.Duration
	Err  error // the underlying net error, if any
}

// Error formats the network operation, peer address, and deadline.
func (e *NetTimeoutError) Error() string {
	return fmt.Sprintf("replication: %s %s timed out after %v", e.Op, e.Addr, e.Wait)
}

// Timeout marks the error for net.Error-style checks.
func (e *NetTimeoutError) Timeout() bool { return true }

// Unwrap exposes the underlying net error to errors.Is/As chains.
func (e *NetTimeoutError) Unwrap() error { return e.Err }

// Dial connects to addr within timeout; a timeout surfaces as a typed
// *NetTimeoutError. timeout <= 0 means wait forever.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		return net.Dial("tcp", addr)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, &NetTimeoutError{Op: "dial", Addr: addr, Wait: timeout, Err: err}
		}
		return nil, err
	}
	return conn, nil
}

// AcceptWithin accepts one connection within timeout; a timeout surfaces
// as a typed *NetTimeoutError. timeout <= 0 means wait forever. The
// listener's deadline is cleared before returning.
func AcceptWithin(ln net.Listener, timeout time.Duration) (net.Conn, error) {
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, ok := ln.(deadliner)
	if ok && timeout > 0 {
		if err := dl.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer dl.SetDeadline(time.Time{}) //nolint:errcheck // best-effort clear
	}
	conn, err := ln.Accept()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, &NetTimeoutError{Op: "accept", Addr: ln.Addr().String(), Wait: timeout, Err: err}
		}
		return nil, err
	}
	return conn, nil
}

// idleConn bounds each Read with a rolling deadline: a peer that goes
// silent for longer than idle turns the blocked read into a typed
// *NetTimeoutError instead of hanging the session forever. Writes are
// untouched (the kernel's send buffer plus the peer's read loop bound
// them in practice; a dead peer eventually fails the write).
type idleConn struct {
	net.Conn
	idle time.Duration
}

// NewIdleConn wraps conn so every Read must complete within idle of being
// issued. idle <= 0 returns conn unwrapped.
func NewIdleConn(conn net.Conn, idle time.Duration) net.Conn {
	if idle <= 0 {
		return conn
	}
	return &idleConn{Conn: conn, idle: idle}
}

func (c *idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(p)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return n, &NetTimeoutError{Op: "read", Addr: c.Conn.RemoteAddr().String(), Wait: c.idle, Err: err}
		}
	}
	return n, err
}
