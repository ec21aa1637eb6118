// Package trace defines the update traces that drive the checkpoint
// simulator (Section 4.4): for every tick, the list of table cells updated
// in that tick. Traces come from the synthetic Zipfian generator of Table 4,
// the instrumented Knights and Archers game server and the workload
// scenarios.
package trace

import (
	"fmt"
)

// Source produces the cell updates of each tick. Cell indices refer to a
// gamestate.Table laid out row-major. A cell may appear multiple times in
// one tick ("we allow an object to be updated more than once per tick").
type Source interface {
	// NumTicks returns how many ticks the trace covers.
	NumTicks() int
	// NumCells returns the size of the cell space the trace addresses.
	NumCells() int
	// AppendTick appends tick t's updates to buf and returns the extended
	// slice. Implementations must be deterministic: two calls with the same
	// t return the same updates in the same order.
	AppendTick(t int, buf []uint32) []uint32
}

// Stats summarizes a trace in the style of Table 5.
type Stats struct {
	Ticks         int
	Cells         int
	TotalUpdates  int64
	MinPerTick    int
	MaxPerTick    int
	AvgPerTick    float64
	DistinctCells int
	DistinctShare float64 // DistinctCells / Cells
}

// Measure scans the whole trace and returns its statistics.
func Measure(src Source) Stats {
	st := Stats{Ticks: src.NumTicks(), Cells: src.NumCells(), MinPerTick: -1}
	seen := make([]uint64, (src.NumCells()+63)/64)
	distinct := 0
	var buf []uint32
	for t := 0; t < st.Ticks; t++ {
		buf = src.AppendTick(t, buf[:0])
		n := len(buf)
		st.TotalUpdates += int64(n)
		if st.MinPerTick < 0 || n < st.MinPerTick {
			st.MinPerTick = n
		}
		if n > st.MaxPerTick {
			st.MaxPerTick = n
		}
		for _, c := range buf {
			w, m := c>>6, uint64(1)<<(c&63)
			if seen[w]&m == 0 {
				seen[w] |= m
				distinct++
			}
		}
	}
	if st.MinPerTick < 0 {
		st.MinPerTick = 0
	}
	if st.Ticks > 0 {
		st.AvgPerTick = float64(st.TotalUpdates) / float64(st.Ticks)
	}
	st.DistinctCells = distinct
	if st.Cells > 0 {
		st.DistinctShare = float64(distinct) / float64(st.Cells)
	}
	return st
}

// String renders the stats as a small table.
func (s Stats) String() string {
	return fmt.Sprintf(
		"ticks=%d cells=%d updates=%d avg/tick=%.0f min/tick=%d max/tick=%d distinct=%d (%.1f%%)",
		s.Ticks, s.Cells, s.TotalUpdates, s.AvgPerTick, s.MinPerTick,
		s.MaxPerTick, s.DistinctCells, 100*s.DistinctShare)
}

// Memory is an in-memory trace.
type Memory struct {
	Cells int
	Ticks [][]uint32
}

// NewMemory returns an empty in-memory trace over the given cell space.
func NewMemory(cells int) *Memory { return &Memory{Cells: cells} }

// Append adds one tick's updates (copying the slice).
func (m *Memory) Append(updates []uint32) {
	cp := make([]uint32, len(updates))
	copy(cp, updates)
	m.Ticks = append(m.Ticks, cp)
}

// NumTicks implements Source.
func (m *Memory) NumTicks() int { return len(m.Ticks) }

// NumCells implements Source.
func (m *Memory) NumCells() int { return m.Cells }

// AppendTick implements Source.
func (m *Memory) AppendTick(t int, buf []uint32) []uint32 {
	return append(buf, m.Ticks[t]...)
}

var _ Source = (*Memory)(nil)
