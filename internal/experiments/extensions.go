package experiments

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/report"
)

// RunLoggingFeasibility quantifies the paper's motivating claim (Section 1):
// ARIES-style physical logging cannot sustain MMO update rates on the
// recovery disk, while logical logging of user actions stays far below the
// bandwidth ceiling. The curves cross the disk-bandwidth line at the rate
// where a log-based DBMS back-end stops keeping up.
func RunLoggingFeasibility(s Scale) *report.Figure {
	p := Config(s).Params
	fig := &report.Figure{
		Title:  fmt.Sprintf("Extension (%s scale): logging bandwidth demand vs update rate", s),
		XLabel: "# updates per tick",
		YLabel: "log bandwidth [MB/s]",
	}
	physical := report.Series{Name: "ARIES-style physical log"}
	logical := report.Series{Name: "logical log (20 updates/action)"}
	diskLine := report.Series{Name: "recovery disk bandwidth"}
	for _, u := range UpdateSweep(s) {
		physical.Add(float64(u), p.PhysicalLogDemand(u)/1e6)
		logical.Add(float64(u), p.LogicalLogDemand(u, 20)/1e6)
		diskLine.Add(float64(u), p.DiskBandwidth/1e6)
	}
	fig.Add(physical)
	fig.Add(logical)
	fig.Add(diskLine)
	return fig
}

// MaxPhysicalLoggingRate returns the updates-per-tick where physical logging
// saturates the scale's disk.
func MaxPhysicalLoggingRate(s Scale) float64 {
	return Config(s).Params.MaxLoggableUpdateRate()
}

// RunKSafetyComparison builds the comparison the paper sketches in Section 7
// against K-safe active replication (Whitney et al., Lau and Madden,
// Stonebraker et al.): K replicas each execute the full simulation loop, so
// utilization is 1/K and recovery is a fast failover, while checkpoint
// recovery keeps utilization near 1 at the cost of ΔTrecovery of downtime.
// The checkpoint rows use measured simulator results for the scale's default
// workload; the replication rows are analytic.
func RunKSafetyComparison(s Scale, seed int64) (*report.TextTable, error) {
	cfg := Config(s)
	src, err := zipfSource(cfg, DefaultUpdates(s), Ticks(s), DefaultSkew, seed)
	if err != nil {
		return nil, err
	}
	results, err := checkpoint.RunAll(
		[]checkpoint.Method{checkpoint.NaiveSnapshot, checkpoint.CopyOnUpdate}, cfg, src)
	if err != nil {
		return nil, err
	}

	t := report.NewTextTable()
	t.Header("approach", "servers/shard", "useful utilization",
		"recovery after failure", "survives", "extra game latency")
	for _, r := range results {
		util := 1 - r.AvgOverhead/(cfg.Params.TickLen()+r.AvgOverhead)
		t.Row(
			"checkpoint: "+r.Method.String(),
			"1",
			fmt.Sprintf("%.1f%%", util*100),
			fmt.Sprintf("%.2f s downtime", r.RecoveryTime),
			"fail-stop crashes (state preserved)",
			fmt.Sprintf("%.2f ms/tick avg, %.1f ms peak",
				r.AvgOverhead*1e3, r.MaxOverhead*1e3),
		)
	}
	// Rebuilding a failed replica streams the state over the network; at a
	// gigabit the default state takes StateBytes/125MB/s.
	stateBytes := float64(cfg.Params.StateBytes(cfg.Table.NumObjects()))
	rebuild := stateBytes / 125e6
	for _, k := range []int{2, 3} {
		t.Row(
			fmt.Sprintf("K-safe active replication (K=%d)", k),
			fmt.Sprint(k),
			fmt.Sprintf("%.1f%%", 100.0/float64(k)),
			fmt.Sprintf("≈0 s failover (+%.1f s replica rebuild)", rebuild),
			fmt.Sprintf("up to %d simultaneous failures", k-1),
			"replica coordination only",
		)
	}
	return t, nil
}
