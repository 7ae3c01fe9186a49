package crashtest

import (
	"fmt"
	"testing"
)

// TestReplCrashProperty is the acceptance property: a primary under
// concurrent write load, crash-injected at every snapshot/stream
// protocol point, must leave the replica (or a restored DB) equal to an
// exact committed-epoch prefix, and converge to byte-identical equality
// (both iteration directions) after catch-up. The 7-round campaign
// rotates through every protocol point once per seed.
func TestReplCrashProperty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			seeds := []int64{1, 2}
			if testing.Short() {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				n, err := RunRepl(ReplConfig{Shards: shards, PersistFraction: 0.5}, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if n != len(snapPoints) {
					t.Fatalf("seed %d: %d rounds, want one per snapshot point and a clean round (%d)", seed, n, len(snapPoints))
				}
			}
		})
	}
}

// TestReplCrashPropertyCrossShardCount runs the campaign with a replica
// whose shard count differs from the primary's: prefix exactness and
// convergence are placement-independent.
func TestReplCrashPropertyCrossShardCount(t *testing.T) {
	if _, err := RunRepl(ReplConfig{Shards: 4, FollowerShards: 2, PersistFraction: 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		return
	}
	if _, err := RunRepl(ReplConfig{Shards: 1, FollowerShards: 3, PersistFraction: 0.5}, 4); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCrashRestartability: a snapshot aborted at any protocol
// point leaves the primary fully usable — a subsequent export succeeds
// and restores exactly (the export protocol holds no poisoned state).
func TestSnapshotCrashRestartability(t *testing.T) {
	if _, err := RunRepl(ReplConfig{Shards: 2, Rounds: 3, OpsPerBurst: 200, PersistFraction: 0.5}, 5); err != nil {
		t.Fatal(err)
	}
}
