package cluster

import "repro/internal/telemetry"

// Cluster runtime metrics (telemetry default registry, process-wide).
// The recovery_* family is recorded here because the recovery ladder —
// which rung actually served a partition, and what the whole-world wall
// came to — is decided at the cluster layer; the per-stage restore/replay
// spans underneath come from recovery.RecoverParallel.
var (
	telBarrierWait = telemetry.NewHistogram("cluster_barrier_wait_ns", "Per-wait coordinator wall blocked on node progress (tick window, join), in nanoseconds (checkpoint waits excluded, like BarrierWait).")
	telCkptWall    = telemetry.NewHistogram("cluster_checkpoint_wall_ns", "Coordinated world checkpoint wall time, in nanoseconds.")
	telCkptLast    = telemetry.NewGauge("cluster_last_checkpoint_wall_ns", "Wall time of the most recent coordinated world checkpoint, in nanoseconds.")

	telWorldWall     = telemetry.NewHistogram("recovery_world_wall_ns", "Whole-world recovery wall time (slowest partition), in nanoseconds.")
	telWorldWallLast = telemetry.NewGauge("recovery_last_world_wall_ns", "Wall time of the most recent whole-world recovery, in nanoseconds.")
	telServedRung    = telemetry.NewCounterVec("recovery_served_total", "rung", "Partition recoveries served, by recovery-ladder rung (standby, disk).")
	telFallthrough   = telemetry.NewCounterVec("recovery_fallthrough_total", "rung", "Attached recovery-ladder rungs that failed and fell through to the next rung.")

	telMigPause = telemetry.NewHistogram("cluster_migration_install_pause_ns", "Cut pause of completed partition migrations (range copy out of the source plus install on the target), in nanoseconds.")
)
