package peerram

import "repro/internal/telemetry"

// Peer-RAM mesh metrics (telemetry default registry, process-wide). The
// replica-bytes gauge is the memory side of the RAM-vs-recovery-time trade;
// it tracks the sum over every store's compressed footprint and is updated
// at the natural settle points (refresh, drain, stats) rather than per
// delta, keeping the per-tick feed untouched.
var (
	telReplicaBytes = telemetry.NewGauge("peerram_replica_bytes", "Compressed replica bytes held across all mesh stores on behalf of peers.")
	telRefreshes    = telemetry.NewCounter("peerram_refreshes_total", "Checkpoint-image refreshes put into mesh stores.")
	telDrains       = telemetry.NewCounter("peerram_drains_total", "Graceful-shutdown drain barriers completed against the mesh.")
)

// updateReplicaBytes recomputes the mesh-wide compressed footprint gauge.
func (m *Mesh) updateReplicaBytes() {
	if !telemetry.Enabled() {
		return
	}
	var total int64
	for _, st := range m.stores {
		total += st.CompressedBytes()
	}
	telReplicaBytes.Set(total)
}
