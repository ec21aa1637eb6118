package workload

import (
	"math"

	"repro/internal/trace"
	"repro/internal/zipf"
)

// The scenario catalog. Each entry names the MMO load pattern it models and
// the system component it stresses; DESIGN.md maps them onto the paper's
// experiment sections.

// hotspot is the paper-faithful scenario: the Section 4.4 synthetic trace,
// rows and columns drawn independently from the same Zipf distribution.
// It wraps trace.Zipfian so the stream is bit-identical to what the
// paper-reproduction experiments have always used.
type hotspot struct {
	*trace.Zipfian
}

func (hotspot) Name() string { return "hotspot" }

func newHotspot(cfg Config) (Source, error) {
	z, err := trace.NewZipfian(trace.ZipfianConfig{
		Table:          cfg.Table,
		UpdatesPerTick: cfg.UpdatesPerTick,
		Ticks:          cfg.Ticks,
		Skew:           cfg.Skew,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return hotspot{z}, nil
}

// quiescent is the overnight server: a trickle of uniform background
// updates at 1/32 of the baseline rate. It is the worst case for
// copy-on-update amortization — almost nothing is dirty, so a full-image
// checkpointer pays its whole cost for a handful of changed objects — and
// the best case for log replay (short logs, tiny dirty sets).
type quiescent struct {
	base
	perTick int
}

func newQuiescent(cfg Config) (Source, error) {
	return &quiescent{
		base:    newBase("quiescent", cfg),
		perTick: max(1, cfg.UpdatesPerTick/32),
	}, nil
}

// AppendTick implements trace.Source.
func (q *quiescent) AppendTick(t int, buf []uint32) []uint32 {
	rng := q.rng(t)
	defer trace.PutRand(rng)
	for i := 0; i < q.perTick; i++ {
		buf = append(buf, uint32(rng.Intn(q.cells)))
	}
	return buf
}

// raid models a raid boss: a steady background of uniform updates at 1/4 of
// the baseline rate, and every raidPeriod ticks a spike of 3x the baseline
// concentrated (Zipf 0.9) on a small fixed cell range — the boss room,
// ~1/64 of the state. The spikes hammer one shard's dirty bitmap and
// side-buffer while the rest of the state stays cold.
type raid struct {
	base
	baseRate  int
	spikeRate int
	raidLo    int
	gen       *zipf.Generator
}

const (
	raidPeriod = 16
	raidSpikes = 2 // consecutive spike ticks per period
)

func newRaid(cfg Config) (Source, error) {
	cells := cfg.Table.NumCells()
	w := max(1, cells/64)
	return &raid{
		base:      newBase("raid", cfg),
		baseRate:  max(1, cfg.UpdatesPerTick/4),
		spikeRate: cfg.UpdatesPerTick * 3,
		raidLo:    (cells - w) / 2,
		gen:       zipf.New(w, 0.9),
	}, nil
}

// AppendTick implements trace.Source.
func (r *raid) AppendTick(t int, buf []uint32) []uint32 {
	rng := r.rng(t)
	defer trace.PutRand(rng)
	for i := 0; i < r.baseRate; i++ {
		buf = append(buf, uint32(rng.Intn(r.cells)))
	}
	if t%raidPeriod < raidSpikes {
		for i := 0; i < r.spikeRate; i++ {
			buf = append(buf, uint32(r.raidLo+r.gen.Next(rng)))
		}
	}
	return buf
}

// loginstorm models population churn: the active object population starts
// at 1/16 of the state and a login wave every stormWave ticks adds a cohort
// of 1/64. Wave ticks burst to 2x the baseline rate with 70% of the writes
// aimed at the just-logged-in cohort (spawn-in state initialization);
// between waves the active population putters along at half rate. Cold
// cells beyond the high-water mark are never touched, so checkpoint methods
// that scale with state size rather than dirty size look worst here.
type loginstorm struct {
	base
	initial int
	cohort  int
	burst   int
	idle    int
}

const stormWave = 8

func newLoginStorm(cfg Config) (Source, error) {
	cells := cfg.Table.NumCells()
	cohort := max(1, cells/64)
	return &loginstorm{
		base:    newBase("loginstorm", cfg),
		initial: min(cells, max(cohort, cells/16)),
		cohort:  cohort,
		burst:   cfg.UpdatesPerTick * 2,
		idle:    max(1, cfg.UpdatesPerTick/2),
	}, nil
}

// AppendTick implements trace.Source.
func (l *loginstorm) AppendTick(t int, buf []uint32) []uint32 {
	rng := l.rng(t)
	defer trace.PutRand(rng)
	active := min(l.cells, l.initial+(t/stormWave)*l.cohort)
	if t%stormWave != 0 {
		for i := 0; i < l.idle; i++ {
			buf = append(buf, uint32(rng.Intn(active)))
		}
		return buf
	}
	// A wave lands this tick: the newest cohort takes the brunt.
	newLo := max(0, active-l.cohort)
	newW := active - newLo
	hot := l.burst * 7 / 10
	for i := 0; i < hot; i++ {
		buf = append(buf, uint32(newLo+rng.Intn(newW)))
	}
	for i := hot; i < l.burst; i++ {
		buf = append(buf, uint32(rng.Intn(active)))
	}
	return buf
}

// migration models zone migration: a hot window of 1/8 of the state whose
// start drifts linearly across the whole cell space over the trace,
// wrapping at the end. Updates are Zipf-distributed inside the window, so
// the hot set continuously crosses shard boundaries — the stress case for
// cross-shard checkpoint and replication balance (no shard stays the "hot
// shard" for long).
type migration struct {
	base
	rate   int
	window int
	gen    *zipf.Generator
}

func newMigration(cfg Config) (Source, error) {
	cells := cfg.Table.NumCells()
	w := max(1, cells/8)
	return &migration{
		base:   newBase("migration", cfg),
		rate:   cfg.UpdatesPerTick,
		window: w,
		gen:    zipf.New(w, cfg.Skew),
	}, nil
}

// windowStart returns the drifting window origin for tick t: a linear sweep
// of the whole cell space across the trace.
func (m *migration) windowStart(t int) int {
	return int(int64(t) * int64(m.cells) / int64(m.ticks) % int64(m.cells))
}

// AppendTick implements trace.Source.
func (m *migration) AppendTick(t int, buf []uint32) []uint32 {
	rng := m.rng(t)
	defer trace.PutRand(rng)
	start := m.windowStart(t)
	for i := 0; i < m.rate; i++ {
		buf = append(buf, uint32((start+m.gen.Next(rng))%m.cells))
	}
	return buf
}

// flashcrowd models a world event: for the first half of the trace the load
// is a mild Zipf spread over the whole space, then at the halfway tick the
// skew jumps (capped at 0.99) and the hot set relocates to the far end of
// the cell space in a single tick, with a 2x volume surge for the first
// flashSurge ticks. Recovery from a crash just after the shift replays a
// log whose locality is nothing like the checkpoint image it lands on.
type flashcrowd struct {
	base
	rate     int
	switchAt int
	calm     *zipf.Generator
	hot      *zipf.Generator
}

const flashSurge = 4

func newFlashCrowd(cfg Config) (Source, error) {
	cells := cfg.Table.NumCells()
	return &flashcrowd{
		base:     newBase("flashcrowd", cfg),
		rate:     cfg.UpdatesPerTick,
		switchAt: cfg.Ticks / 2,
		calm:     zipf.New(cells, cfg.Skew*0.75),
		hot:      zipf.New(cells, math.Min(0.99, cfg.Skew+0.15)),
	}, nil
}

// AppendTick implements trace.Source.
func (f *flashcrowd) AppendTick(t int, buf []uint32) []uint32 {
	rng := f.rng(t)
	defer trace.PutRand(rng)
	if t < f.switchAt {
		for i := 0; i < f.rate; i++ {
			buf = append(buf, uint32(f.calm.Next(rng)))
		}
		return buf
	}
	n := f.rate
	if t < f.switchAt+flashSurge {
		n *= 2
	}
	// The crowd rushes the event: hottest ranks map to the far end of the
	// cell space, instantly relocating the working set.
	for i := 0; i < n; i++ {
		buf = append(buf, uint32(f.cells-1-f.hot.Next(rng)))
	}
	return buf
}
