package wal

import "repro/internal/telemetry"

// WAL runtime metrics (telemetry default registry, process-wide across
// every open log). Append and Sync only call time.Now while telemetry is
// enabled, so the disabled tick path keeps its exact instruction count.
var (
	telAppend      = telemetry.NewHistogram("wal_append_ns", "Latency of one logical-log Append, one tick's records (buffered write, no fsync), in nanoseconds.")
	telFsync       = telemetry.NewHistogram("wal_fsync_ns", "Latency of one logical-log Sync (buffer flush + fsync), in nanoseconds.")
	telSeal        = telemetry.NewHistogram("wal_seal_ns", "Latency of sealing a logical-log segment in Rotate (buffer flush + fsync), in nanoseconds. Not counted in wal_fsync_ns.")
	telAppendBytes = telemetry.NewCounter("wal_append_bytes_total", "Bytes appended to logical logs, framing included.")
	telReadBytes   = telemetry.NewCounter("wal_read_bytes_total", "Bytes read from logical-log segment files by log readers (recovery, the standby shipper) and the open-time scan.")
	telSegsSkipped = telemetry.NewCounter("wal_segments_skipped_total", "Sealed logical-log segments a reader left unopened because every record in them is below the tick it reads from.")
)
