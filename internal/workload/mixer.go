package workload

import (
	"fmt"
	"math"
)

// Part is one weighted component of a mixer phase. Weight in (0,1] is the
// fraction of the component's own per-tick updates the mixer takes (the
// deterministic prefix of the component's tick, so composition never
// perturbs the component's stream).
type Part struct {
	Source Source
	Weight float64
}

// Phase is a contiguous run of ticks blending one or more parts. Every part
// must cover at least Ticks ticks; the mixer feeds parts their *local* tick
// index (0-based within the phase), so a phase replays its components from
// their beginning regardless of where the phase sits in the schedule.
type Phase struct {
	Ticks int
	Parts []Part
}

// Mixer composes scenarios into a single Source: a schedule of weighted
// phases over exact tick boundaries. Tick t belongs to phase i iff
// start(i) <= t < start(i)+phases[i].Ticks with start(i) the running sum of
// earlier phase lengths — boundaries are exact in tick counts, which the
// property tests pin down.
type Mixer struct {
	name   string
	cells  int
	phases []Phase
	starts []int // starts[i] = first tick of phase i
	total  int
}

// NewMixer validates and assembles a mixer. All parts must agree on
// NumCells and cover their phase's tick span.
func NewMixer(name string, phases ...Phase) (*Mixer, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: mixer %q needs at least one phase", name)
	}
	m := &Mixer{name: name, phases: phases, cells: -1}
	for i, ph := range phases {
		if ph.Ticks <= 0 {
			return nil, fmt.Errorf("workload: mixer %q phase %d has %d ticks", name, i, ph.Ticks)
		}
		if len(ph.Parts) == 0 {
			return nil, fmt.Errorf("workload: mixer %q phase %d has no parts", name, i)
		}
		for j, p := range ph.Parts {
			if p.Source == nil {
				return nil, fmt.Errorf("workload: mixer %q phase %d part %d is nil", name, i, j)
			}
			if p.Weight <= 0 || p.Weight > 1 {
				return nil, fmt.Errorf("workload: mixer %q phase %d part %d weight %v outside (0,1]",
					name, i, j, p.Weight)
			}
			if m.cells < 0 {
				m.cells = p.Source.NumCells()
			} else if p.Source.NumCells() != m.cells {
				return nil, fmt.Errorf("workload: mixer %q phase %d part %d spans %d cells, want %d",
					name, i, j, p.Source.NumCells(), m.cells)
			}
			if p.Source.NumTicks() < ph.Ticks {
				return nil, fmt.Errorf("workload: mixer %q phase %d part %d covers %d ticks, phase needs %d",
					name, i, j, p.Source.NumTicks(), ph.Ticks)
			}
		}
		m.starts = append(m.starts, m.total)
		m.total += ph.Ticks
	}
	return m, nil
}

// Name implements Source.
func (m *Mixer) Name() string { return m.name }

// NumTicks implements trace.Source.
func (m *Mixer) NumTicks() int { return m.total }

// NumCells implements trace.Source.
func (m *Mixer) NumCells() int { return m.cells }

// AppendTick implements trace.Source.
func (m *Mixer) AppendTick(t int, buf []uint32) []uint32 {
	if t < 0 || t >= m.total {
		panic(fmt.Sprintf("workload: %s tick %d out of range [0,%d)", m.name, t, m.total))
	}
	i := len(m.starts) - 1
	for m.starts[i] > t {
		i--
	}
	local := t - m.starts[i]
	for _, p := range m.phases[i].Parts {
		mark := len(buf)
		buf = p.Source.AppendTick(local, buf)
		if p.Weight < 1 {
			n := int(math.Floor(p.Weight*float64(len(buf)-mark) + 0.5))
			buf = buf[:mark+n]
		}
	}
	return buf
}

var _ Source = (*Mixer)(nil)

// newMixed is the registry's composite scenario: a day in the life of a
// zone server — quiet night, morning login storms, an evening raid over
// background chatter, then a flash crowd — in four equal phases. It
// exercises the mixer through every consumer that sweeps the registry.
func newMixed(cfg Config) (Source, error) {
	q := cfg.Ticks / 4
	if q == 0 {
		return nil, fmt.Errorf("workload: mixed needs at least 4 ticks, got %d", cfg.Ticks)
	}
	// Sub-scenarios run with their phase's length and a seed offset per
	// phase, so the composite stays a pure function of cfg.Seed.
	sub := func(name string, ticks int, seedOff int64) (Source, error) {
		c := cfg
		c.Ticks = ticks
		c.Seed = cfg.Seed + seedOff
		return New(name, c)
	}
	night, err := sub("quiescent", q, 101)
	if err != nil {
		return nil, err
	}
	morning, err := sub("loginstorm", q, 211)
	if err != nil {
		return nil, err
	}
	evenRaid, err := sub("raid", q, 307)
	if err != nil {
		return nil, err
	}
	evenBg, err := sub("quiescent", q, 401)
	if err != nil {
		return nil, err
	}
	lastLen := cfg.Ticks - 3*q // remainder rides in the final phase
	event, err := sub("flashcrowd", lastLen, 503)
	if err != nil {
		return nil, err
	}
	return NewMixer("mixed",
		Phase{Ticks: q, Parts: []Part{{night, 1}}},
		Phase{Ticks: q, Parts: []Part{{morning, 1}}},
		Phase{Ticks: q, Parts: []Part{{evenRaid, 0.7}, {evenBg, 1}}},
		Phase{Ticks: lastLen, Parts: []Part{{event, 1}}},
	)
}
