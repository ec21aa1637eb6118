package cluster

import "fmt"

// RecoveryMode names a rung of the recovery ladder: the label Recover
// reports for the source that served each partition (WorldRecovery.Modes,
// the recovery_served_total counter) and the clusterbench axis. The ladder
// itself is not selected by mode — Recover builds it from what the caller
// attached (see Recover).
type RecoveryMode int

// The rungs. RecoveryDisk, the zero value, is the one rung that is always
// present: a partition's own directory needs no surviving peer.
const (
	// RecoveryDisk is the paper's restore+replay pipeline.
	RecoveryDisk RecoveryMode = iota
	// RecoveryStandby is warm-standby promotion.
	RecoveryStandby
)

// String names the rung the way the recovery_served_total label and the
// clusterbench axis spell it.
func (m RecoveryMode) String() string {
	switch m {
	case RecoveryDisk:
		return "disk"
	case RecoveryStandby:
		return "standby"
	}
	return fmt.Sprintf("RecoveryMode(%d)", int(m))
}

// ParseRecoveryMode parses a rung name as String spells it.
func ParseRecoveryMode(s string) (RecoveryMode, error) {
	switch s {
	case "disk":
		return RecoveryDisk, nil
	case "standby":
		return RecoveryStandby, nil
	}
	return 0, fmt.Errorf("cluster: unknown recovery mode %q (want disk or standby)", s)
}
