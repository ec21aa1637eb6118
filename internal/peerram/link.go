package peerram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// errLinkStopped ends a Drain or Refresh on a link whose feed has stopped
// without an error of its own (it was detached).
var errLinkStopped = errors.New("peerram: link stopped")

// link is one (owner → holder) replica feed: one goroutine follows the
// owner's WAL through an engine.LogFollower — the reader under the
// warm-standby Shipper too — and puts every whole tick, flate-compressed,
// straight into the holder's Store. The store's watermark (the first tick
// it still needs) is the owner's log retention, so pruning never outruns
// the replica, and nothing on the tick path fsyncs.
//
// One bundle per tick is what keeps the replica whole: the follower yields
// a tick only once all of its records are in the log, so the store never
// holds a torn tick — unlike a crashed node's own WAL, whose final tick can
// tear between the records that share it.
type link struct {
	owner int
	e     *engine.Engine
	store *Store
	f     *engine.LogFollower

	// imageMu makes snapshot-and-put one step, so images land in the store
	// in snapshot order: a Refresh racing the initial image never regresses
	// it.
	imageMu sync.Mutex

	mu      sync.Mutex
	w       uint64        // the store's watermark for owner
	err     error         // why the feed ended; nil while it runs
	changed chan struct{} // closed and replaced whenever w or err moves

	stop chan struct{}
	done chan struct{}
}

// startLink starts feeding owner's replica on e into store. It returns
// immediately; the initial image is put on the feed goroutine.
func startLink(owner int, e *engine.Engine, store *Store) (*link, error) {
	f, err := e.FollowLog()
	if err != nil {
		return nil, err
	}
	l := &link{
		owner:   owner,
		e:       e,
		store:   store,
		f:       f,
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go l.run()
	return l, nil
}

func (l *link) run() {
	defer close(l.done)
	err := l.feed()
	l.f.Close()
	if err == nil {
		err = errLinkStopped
	}
	l.publish(0, err)
}

// feed is the link's main line: the initial image, then one delta bundle
// per whole tick the follower yields.
func (l *link) feed() error {
	floor, err := l.putImage()
	if err != nil {
		return err
	}
	var bundle []byte // u32-length-prefixed records of one tick
	for {
		// A tick a Refresh has since covered is a stale put the store skips.
		tick, recs, ok, err := l.f.Next(floor, l.stop)
		if err != nil || !ok {
			return err
		}
		bundle = bundle[:0]
		for _, rec := range recs {
			bundle = binary.LittleEndian.AppendUint32(bundle, uint32(len(rec)))
			bundle = append(bundle, rec...)
		}
		comp, err := deflate(bundle)
		if err != nil {
			return err
		}
		w, err := l.store.PutDelta(l.owner, tick, len(bundle), comp)
		if err != nil {
			return err
		}
		l.publish(w, nil)
	}
}

// putImage snapshots the engine, compresses the slab and installs it as the
// holder's image, dropping the deltas it supersedes. It returns the first
// tick the image does not cover.
func (l *link) putImage() (uint64, error) {
	l.imageMu.Lock()
	defer l.imageMu.Unlock()
	nextTick, snap, err := l.e.Snapshot()
	if err != nil {
		return 0, err
	}
	epoch := l.e.CheckpointEpoch()
	comp, err := deflate(snap)
	if err != nil {
		return 0, err
	}
	w, err := l.store.PutImage(l.owner, epoch, nextTick, len(snap), comp)
	if err != nil {
		return 0, err
	}
	l.publish(w, nil)
	return nextTick, nil
}

// publish moves the link's watermark forward (never back), releases the
// owner's log below it, latches the first error, and wakes every Drain.
func (l *link) publish(w uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w > l.w {
		l.w = w
		l.f.NeedFrom(w)
	}
	if l.err == nil {
		l.err = err
	}
	close(l.changed)
	l.changed = make(chan struct{})
}

// refresh puts a fresh checkpoint image; when it returns, the store's image
// is the new cut and the deltas it supersedes are gone.
func (l *link) refresh() error {
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = l.putImage()
	return err
}

// await blocks until the store's watermark passes tick (the holder's RAM
// covers everything at or below it), the feed ends, or the timeout elapses
// (timeout <= 0 waits without a deadline).
func (l *link) await(tick uint64, timeout time.Duration) error {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		l.mu.Lock()
		w, err, changed := l.w, l.err, l.changed
		l.mu.Unlock()
		switch {
		case w > tick:
			return nil
		case err != nil:
			return err
		}
		select {
		case <-changed:
		case <-expired:
			return fmt.Errorf("peerram: tick %d not held within %v", tick, timeout)
		}
	}
}

// close stops the feed and joins its goroutine. The store keeps what it
// holds.
func (l *link) close() {
	close(l.stop)
	<-l.done
}
