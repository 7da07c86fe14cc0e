package checkpoint

import (
	"fmt"

	"repro/internal/hw"
)

// ErrShardUnavailable reports that a checkpoint shard is missing from
// a store — it was never flushed or its domain is gone. It is distinct
// from a corrupt-store error (truncated or unreadable blob): a missing
// shard leaves the caller free to resume elsewhere, while corruption
// must be surfaced.
type ErrShardUnavailable struct {
	Step, Layer int
}

// Error implements error.
func (e *ErrShardUnavailable) Error() string {
	return fmt.Sprintf("checkpoint: step %d layer %d unavailable", e.Step, e.Layer)
}

// Policy is a checkpoint replication policy: each shard has Replicas
// copies in distinct failure domains at the Spread level.
// restart.Model prices the extra pushes and the failover fetch, and
// the manager settles domain outages against it. The zero value
// disables replication (one copy, as before).
type Policy struct {
	// Replicas is the copy count per shard; <= 1 means no replication.
	Replicas int
	// Spread is the anti-affinity level: no two replicas of a shard
	// share a domain at this level (DomainZone survives a zone loss).
	Spread hw.DomainLevel
}

// Enabled reports whether the policy adds redundancy.
func (p Policy) Enabled() bool { return p.Replicas > 1 }
