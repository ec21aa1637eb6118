package chaos

import (
	"net"
	"sync"
)

// ConnFaults selects the network fault shapes a chaos Conn injects on its
// write path. The replication wire format writes one frame per Write call,
// so the shapes map cleanly onto protocol events: a *drop* loses exactly one
// frame (the peer sees a gap or an out-of-order chunk and fails the
// session), a *sever* cuts the stream mid-frame (the peer seals at the last
// complete frame).
type ConnFaults struct {
	// SeverAfterBytes severs the connection once the cumulative bytes
	// written cross this threshold (0 disables): the crossing write is cut
	// exactly at the threshold, then the conn closes. Both directions die
	// (the transport is gone).
	SeverAfterBytes int64
	// DropProb silently swallows a whole write with this probability while
	// reporting success — a one-direction partition: this end keeps
	// sending, the peer stops hearing. With per-frame writes this loses
	// exactly one frame.
	DropProb float64
}

// Conn wraps a net.Conn with schedule-driven write-path fault injection.
// Deadlines, addresses and the read path pass through (a severed conn's
// reads fail naturally once the underlying conn closes).
type Conn struct {
	net.Conn
	site   string
	faults ConnFaults

	mu       sync.Mutex
	rng      *Rand
	writes   int64
	written  int64
	injected int64
	severed  bool
}

// WrapConn builds the injector for one site. The same (seed, site) always
// yields the same decision stream.
func WrapConn(c net.Conn, seed int64, site string, faults ConnFaults) *Conn {
	return &Conn{Conn: c, site: site, faults: faults, rng: NewRand(seed, site)}
}

// Injected returns how many faults this conn has injected.
func (c *Conn) Injected() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// Write implements net.Conn with the fault schedule applied per call.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	if c.severed {
		c.injected++
		c.mu.Unlock()
		return 0, &Error{Site: c.site, Op: "sever", N: n}
	}
	drop := c.faults.DropProb > 0 && c.rng.Float64() < c.faults.DropProb
	cut, sever := int64(len(p)), false
	if c.faults.SeverAfterBytes > 0 && !drop {
		if remaining := c.faults.SeverAfterBytes - c.written; cut >= remaining {
			cut, sever = remaining, true
		}
	}
	if sever {
		c.severed = true
	}
	if sever || drop {
		c.injected++
	}
	if !drop {
		c.written += cut
	}
	c.mu.Unlock()
	switch {
	case sever:
		wn := 0
		if cut > 0 {
			wn, _ = c.Conn.Write(p[:cut])
		}
		c.Conn.Close() //nolint:errcheck // the sever; best effort
		return wn, &Error{Site: c.site, Op: "sever", N: n}
	case drop:
		return len(p), nil
	default:
		return c.Conn.Write(p)
	}
}
