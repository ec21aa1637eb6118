package engine

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

// TestFollowLogSignalsAndFlushes: a log follower's subscription sees a
// coalesced signal per tick, and the freshly appended record is already
// visible to a wal.Reader following the log when the signal arrives (the
// flush barrier).
func TestFollowLogSignalsAndFlushes(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := e.FollowLog()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	r, err := wal.NewReader(e.WALDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for tick := 0; tick < 5; tick++ {
		if err := e.ApplyTick([]wal.Update{{Cell: uint32(tick), Value: uint32(tick)}}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-f.sub.C:
			if got != uint64(tick) {
				t.Fatalf("signal carried tick %d, want %d", got, tick)
			}
		case <-time.After(time.Second):
			t.Fatalf("no signal for tick %d", tick)
		}
		// The record must be on disk (flushed) by signal time.
		rt, _, err := r.Next()
		if err != nil || rt != uint64(tick) {
			t.Fatalf("reader after tick %d: tick=%d err=%v", tick, rt, err)
		}
	}
}

func TestFollowLogRequiresLog(t *testing.T) {
	e, err := Open(Options{Table: testTable(), InMemory: true, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.FollowLog(); err == nil {
		t.Fatal("FollowLog on an InMemory engine did not fail")
	}
}

// installImage lands img on b the way a standby lands a shipped image:
// through disk.Install, run by run.
func installImage(b *disk.Backup, img disk.Image) error {
	if img.Block == nil {
		return nil
	}
	data := img.Data
	_, err := b.Install(img.Block, func(_, max int) ([]byte, error) {
		run := data[:max*int(img.Header.ObjSize)]
		data = data[len(run):]
		return run, nil
	}, func() error { return nil })
	return err
}

// standbyOf opens a standby in opts.Dir bootstrapped from p's newest
// complete image.
func standbyOf(t *testing.T, p *Engine, opts Options) *Engine {
	t.Helper()
	img, err := p.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStandby(opts, func(b *disk.Backup) error { return installImage(b, img) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReadImageIsTickConsistent: the bootstrap image is the newest complete
// one, holds exactly the state as of its tick, and is not changed by the
// ticks and checkpoints that follow.
func TestReadImageIsTickConsistent(t *testing.T) {
	tab := testTable()
	e, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if img, err := e.ReadImage(); err != nil || img.Block != nil {
		t.Fatalf("a fresh engine read an image as of tick %d (%v)", img.Header.AsOfTick, err)
	}
	rng := rand.New(rand.NewSource(7))
	for tick := 0; tick < 10; tick++ {
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CheckpointAsOf(9); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(e.Store().Slab())
	img, err := e.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	if !img.Header.Complete || img.Header.AsOfTick != 9 {
		t.Fatalf("image header %+v, want complete as of tick 9", img.Header)
	}
	dev := disk.NewMem()
	b, err := disk.NewBackup(dev, tab.NumObjects(), tab.ObjSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := installImage(b, img); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := b.ReadRun(0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatal("image differs from the slab as of its tick")
	}
	before := bytes.Clone(img.Data)
	for tick := 0; tick < 5; tick++ {
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 32)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(img.Data, before) {
		t.Fatal("image mutated by later ticks")
	}
	if img, err := e.ReadImage(); err != nil || img.Header.AsOfTick != 14 {
		t.Fatalf("after 5 more checkpoints the newest image is as of tick %d (%v), want 14", img.Header.AsOfTick, err)
	}
}

// pinDevs counts each backup's writes and, once armed, parks the first read
// past an image header (the bootstrap's image read) until release closes.
type pinDevs struct {
	writes  [2]atomic.Int64
	armed   atomic.Bool
	parked  chan int // the backup whose read parked
	release chan struct{}
}

type pinDev struct {
	disk.Device
	i int
	d *pinDevs
}

func (d *pinDev) WriteAt(p []byte, off int64) (int, error) {
	d.d.writes[d.i].Add(1)
	return d.Device.WriteAt(p, off)
}

func (d *pinDev) ReadAt(p []byte, off int64) (int, error) {
	if off >= disk.HeaderSize && d.d.armed.CompareAndSwap(true, false) {
		d.d.parked <- d.i
		<-d.d.release
	}
	return d.Device.ReadAt(p, off)
}

// pastHeader counts the bytes read past a backup's image header.
type pastHeader struct {
	disk.Device
	n *atomic.Int64
}

func (d pastHeader) ReadAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > disk.HeaderSize {
		d.n.Add(end - max(off, disk.HeaderSize))
	}
	return d.Device.ReadAt(p, off)
}

// TestImagePinHoldsCutsOff holds the bootstrap's image read on a channel.
// Meanwhile every tick completes, checkpoints go on back to back but never
// write the pinned backup, and a CheckpointNow that needs that backup
// returns only after the pin drops.
func TestImagePinHoldsCutsOff(t *testing.T) {
	tab := biggerTable()
	d := &pinDevs{parked: make(chan int, 1), release: make(chan struct{})}
	opts := Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate,
		DeviceFactory: func(path string) (disk.Device, error) {
			dev, err := disk.OpenFile(path)
			if err != nil {
				return nil, err
			}
			i := 0
			if strings.HasSuffix(path, "backup-b.img") {
				i = 1
			}
			return &pinDev{Device: dev, i: i, d: d}, nil
		}}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(23))
	apply := func() {
		t.Helper()
		batch := randomBatch(rng, tab.NumCells(), 64)
		done := make(chan error, 1)
		go func() { done <- e.ApplyTick(batch) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ApplyTick blocked behind the pinned image read")
		}
	}
	for i := 0; i < 4; i++ {
		apply()
	}
	if _, err := e.CheckpointAsOf(3); err != nil {
		t.Fatal(err)
	}

	d.armed.Store(true)
	type read struct {
		img disk.Image
		err error
	}
	reads := make(chan read, 1)
	go func() {
		img, err := e.ReadImage()
		reads <- read{img, err}
	}()
	var pinned int
	select {
	case pinned = <-d.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the image read never started")
	}
	before := d.writes[pinned].Load()
	booked := len(e.Stats().Checkpoints)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 20 || len(e.Stats().Checkpoints) <= booked; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint completed on the unpinned backup")
		}
		apply()
	}
	if got := d.writes[pinned].Load(); got != before {
		t.Fatalf("%d writes reached the pinned backup during the image read", got-before)
	}

	var released atomic.Bool
	cps := make(chan error, 1)
	parked := make(chan struct{}, 1)
	waitPinHook = func() {
		select {
		case parked <- struct{}{}:
		default:
		}
	}
	defer func() { waitPinHook = nil }()
	go func() {
		info, err := e.CheckpointNow()
		if err == nil && !released.Load() {
			err = fmt.Errorf("CheckpointNow returned %+v while the pin held its backup", info)
		}
		cps <- err
	}()
	select {
	case <-parked:
	case err := <-cps: // a CheckpointNow that ignores the pin: never nil here
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("CheckpointNow neither waited on the pin nor returned")
	}
	released.Store(true)
	close(d.release)
	select {
	case err := <-cps:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CheckpointNow never returned after the pin dropped")
	}
	r := <-reads
	if r.err != nil || r.img.Header.AsOfTick != 3 {
		t.Fatalf("pinned image as of tick %d (%v), want 3", r.img.Header.AsOfTick, r.err)
	}
	if d.writes[pinned].Load() == before {
		t.Fatal("the checkpoint after the pin dropped did not write the pinned backup")
	}
}

// TestSubscriberRetainsLog: with a subscriber that still needs tick 0, the
// engine's checkpoint-driven pruning must not delete any segment; once the
// watermark advances past the usual prune point, pruning resumes.
func TestSubscriberRetainsLog(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := e.FollowLog()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(9))
	checkpoint := func() {
		t.Helper()
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		checkpoint()
	}
	// Everything must still replay from tick 0 for the subscriber.
	if seen, got := len(logTicks(t, e.log)), int(e.NextTick()); seen != got {
		t.Fatalf("with need=0, log replays %d ticks, want all %d", seen, got)
	}

	// Advance the watermark beyond the log: pruning behaves as without
	// a subscriber again.
	f.NeedFrom(e.NextTick())
	for i := 0; i < 2; i++ {
		checkpoint()
	}
	if ticks := logTicks(t, e.log); len(ticks) == 0 || ticks[0] == 0 {
		t.Fatalf("after watermark advance, log still starts at tick 0 (ticks %v)", ticks)
	}
}

// logTicks returns the tick of every record l holds, in log order.
func logTicks(t *testing.T, l *wal.Log) []uint64 {
	t.Helper()
	r, err := l.NewReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var ticks []uint64
	for {
		tick, _, err := r.Next()
		if err == io.EOF {
			return ticks
		}
		if err != nil {
			t.Fatal(err)
		}
		ticks = append(ticks, tick)
	}
}

// TestStandbyLifecycle: OpenStandby lands the primary's image and recovers
// from it, gates normal ticking, ingests in strict order, and Promote makes
// the engine a normal primary whose on-disk state recovers byte-identically.
func TestStandbyLifecycle(t *testing.T) {
	tab := testTable()
	rng := rand.New(rand.NewSource(11))

	// A primary with some history provides the image.
	pdir := t.TempDir()
	p, err := Open(Options{Table: tab, Dir: pdir, Mode: ModeCopyOnUpdate, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]wal.Update
	for tick := 0; tick < 6; tick++ {
		batch := randomBatch(rng, tab.NumCells(), 24)
		batches = append(batches, batch)
		if err := p.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.CheckpointAsOf(5); err != nil {
		t.Fatal(err)
	}

	sdir := t.TempDir()
	s := standbyOf(t, p, Options{Table: tab, Dir: sdir, Mode: ModeCopyOnUpdate, SyncEveryTick: true})
	if !s.IsStandby() {
		t.Fatal("OpenStandby engine does not report standby")
	}
	if rec := s.Recovery(); !rec.Restored || rec.AsOfTick != 5 || s.NextTick() != 6 {
		t.Fatalf("standby recovered %+v to tick %d, want the image as of 5 and tick 6", rec, s.NextTick())
	}
	if err := s.ApplyTick(batches[0]); err == nil {
		t.Fatal("standby accepted ApplyTick before Promote")
	}

	// Feed three more primary ticks through both engines.
	enc := func(batch []wal.Update) []byte {
		return wal.EncodeRuns([]byte{recUpdateRuns}, batch)
	}
	for tick := 6; tick < 9; tick++ {
		batch := randomBatch(rng, tab.NumCells(), 24)
		if err := p.ApplyTick(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestReplicated(uint64(tick), enc(batch)); err != nil {
			t.Fatal(err)
		}
	}
	// Gap and replay protection.
	if err := s.IngestReplicated(12, enc(batches[0])); err == nil {
		t.Fatal("standby accepted a tick gap")
	}

	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if s.IsStandby() {
		t.Fatal("promoted engine still reports standby")
	}
	if !bytes.Equal(s.Store().Slab(), p.Store().Slab()) {
		t.Fatal("promoted standby differs from primary")
	}
	// The promoted engine ticks normally.
	if err := s.ApplyTick(randomBatch(rng, tab.NumCells(), 8)); err != nil {
		t.Fatalf("promoted engine rejects ApplyTick: %v", err)
	}
	promotedSlab := append([]byte(nil), s.Store().Slab()...)
	wantNext := s.NextTick()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Standby durability: a crash-restart of the standby's own directory
	// recovers through the shipped (or a newer own) image + own log to the
	// same bytes.
	s2, err := Open(Options{Table: tab, Dir: sdir, Mode: ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Recovery(); !got.Restored {
		t.Fatal("standby restart found no image")
	}
	if s2.NextTick() != wantNext {
		t.Fatalf("standby restart recovered to tick %d, want %d", s2.NextTick(), wantNext)
	}
	if !bytes.Equal(s2.Store().Slab(), promotedSlab) {
		t.Fatal("standby restart state differs from promoted state")
	}
}

// TestOpenStandbyRejectsUsedDirAndBadGeometry: OpenStandby refuses a
// directory with prior state before anything lands in it, an image of
// another geometry, and an InMemory engine for a shipped image; a ModeNone
// standby holds its image like any other.
func TestOpenStandbyRejectsUsedDirAndBadGeometry(t *testing.T) {
	tab := testTable()
	dir := t.TempDir()
	e, err := Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyTick([]wal.Update{{Cell: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	landed := false
	land := func(*disk.Backup) error { landed = true; return nil }
	// Refused for its log record alone, then for its image too: from the
	// backups' image headers and the log's sizes, reading no image byte.
	var past atomic.Int64
	counted := Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate,
		DeviceFactory: func(path string) (disk.Device, error) {
			d, err := disk.OpenFile(path)
			return pastHeader{d, &past}, err
		}}
	for image := range 2 {
		if image == 1 {
			if e, err = Open(Options{Table: tab, Dir: dir, Mode: ModeCopyOnUpdate}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CheckpointAsOf(0); err != nil {
				t.Fatal(err)
			}
			e.Close()
		}
		if _, err := OpenStandby(counted, land); err == nil || landed {
			t.Fatalf("OpenStandby accepted a directory with prior state (image %d, landed: %v)", image, landed)
		}
		if n := past.Load(); n != 0 {
			t.Fatalf("OpenStandby's refusal read %d image bytes (image %d)", n, image)
		}
	}
	if _, err := OpenStandby(Options{Table: tab, InMemory: true, Mode: ModeCopyOnUpdate}, land); err == nil || landed {
		t.Fatal("OpenStandby landed an image on an InMemory engine")
	}

	// A primary of another geometry, and a checkpointed primary of this one.
	imageOf := func(tab gamestate.Table) *Engine {
		p, err := Open(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if err := p.ApplyTick([]wal.Update{{Cell: 3, Value: 4}}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CheckpointAsOf(0); err != nil {
			t.Fatal(err)
		}
		return p
	}
	img, err := imageOf(biggerTable()).ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStandby(Options{Table: tab, Dir: t.TempDir(), Mode: ModeCopyOnUpdate},
		func(b *disk.Backup) error { return installImage(b, img) }); err == nil {
		t.Fatal("OpenStandby accepted an image of another geometry")
	}
	p := imageOf(tab)
	s := standbyOf(t, p, Options{Table: tab, Dir: t.TempDir(), Mode: ModeNone})
	defer s.Close()
	if s.NextTick() != 1 || !bytes.Equal(s.Store().Slab(), p.Store().Slab()) {
		t.Fatalf("ModeNone standby at tick %d, want 1 and the primary's state", s.NextTick())
	}
}

// TestSubscribeCommitsWorksEverywhereAndNeverPins: a commit-only
// subscription signals on an InMemory engine (where FollowLog refuses),
// and on a durable engine it neither pins log pruning nor forces per-tick
// flushes on the commit path.
func TestSubscribeCommitsWorksEverywhereAndNeverPins(t *testing.T) {
	mem, err := Open(Options{Table: testTable(), InMemory: true, Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	sub := mem.SubscribeCommits()
	defer sub.Close()
	for tick := 0; tick < 3; tick++ {
		if err := mem.ApplyTick([]wal.Update{{Cell: uint32(tick), Value: 7}}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-sub.C:
			if got != uint64(tick) {
				t.Fatalf("signal carried tick %d, want %d", got, tick)
			}
		case <-time.After(time.Second):
			t.Fatalf("no commit signal for tick %d", tick)
		}
	}

	// Retention: a commit-only subscriber must not lower the prune floor.
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cs := e.SubscribeCommits()
	defer cs.Close()
	if got := e.retainFrom(42); got != 42 {
		t.Fatalf("commit-only subscriber moved the prune floor to %d, want 42", got)
	}
}

// TestLogFollowerRestartRereadsFromFloor: after Restart, Next reads the log
// again from the floor it is given — lower than, or equal to, where the
// follower stood — and a tick committed before the restart is still yielded
// on an idle engine: the commit watermark survives the restart.
func TestLogFollowerRestartRereadsFromFloor(t *testing.T) {
	e, err := Open(Options{Table: testTable(), Dir: t.TempDir(), Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := e.FollowLog()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const ticks = 6
	for tick := 0; tick < ticks; tick++ {
		if err := e.ApplyTick([]wal.Update{{Cell: uint32(tick), Value: uint32(tick)}}); err != nil {
			t.Fatal(err)
		}
	}
	// read yields from floor through the last tick; the engine commits
	// nothing more, so the last one is whole only by the commit watermark.
	read := func(floor uint64) {
		t.Helper()
		stop := make(chan struct{})
		timer := time.AfterFunc(10*time.Second, func() { close(stop) })
		defer timer.Stop()
		for want := floor; want < ticks; want++ {
			tick, recs, ok, err := f.Next(floor, stop)
			if err != nil || !ok || tick != want || len(recs) != 1 {
				t.Fatalf("Next(%d) = tick %d, %d records, ok=%v, err=%v; want tick %d", floor, tick, len(recs), ok, err, want)
			}
		}
	}
	read(3)
	f.Restart()
	read(1)
	f.Restart()
	read(1)
}
