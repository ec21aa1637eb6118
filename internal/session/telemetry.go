package session

import "repro/internal/telemetry"

// Gateway runtime metrics (telemetry default registry, process-wide).
// session_intent_visible_ns is the gateway's end-to-end quantity: a tick
// batch's wall from being built out of staged intents (Step) to landing in
// the interested sessions' delta queues (fan-out) — the latency gatewaybench
// measures from the client's side, observed here from the inside.
var (
	telSessions      = telemetry.NewGauge("session_connected", "Currently connected gateway sessions.")
	telStagedIntents = telemetry.NewCounter("session_staged_intents_total", "Client intents accepted into session staging buffers.")
	telIntentVisible = telemetry.NewHistogram("session_intent_visible_ns", "Wall from a tick batch being built out of staged intents to its deltas landing in session queues, in nanoseconds.")
	telFanOut        = telemetry.NewHistogram("session_fanout_ns", "Wall of one committed tick's delta fan-out, from the pump taking it up to the delivered watermark advancing, in nanoseconds.")
	telEvictions     = telemetry.NewCounter("session_evictions_total", "Deltas evicted or refused on full session queues (matches Stats.Dropped growth).")
)
