package crashtest

import (
	"testing"
	"time"
)

// TestRunReplnet runs the networked crash/failover campaign: every
// snapshot protocol point gets a round in which a bootstrap is killed
// there, the primary is crashed mid-stream with two live followers, one
// follower is promoted, and the survivors resync byte-identical.
func TestRunReplnet(t *testing.T) {
	cfg := ReplConfig{PersistFraction: 0.5}
	if testing.Short() {
		cfg = ReplConfig{Rounds: 2, KeysPerWorker: 120, OpsPerBurst: 150, PersistFraction: 0.5}
	}
	seed := time.Now().UnixNano()
	t.Logf("replnet campaign seed %d", seed)
	if err := RunReplnet(cfg, seed); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplnetPartition severs every replication connection mid-batch,
// repeatedly, under load: each cut forces a full re-bootstrap and the
// followers must land back on exact committed prefixes.
func TestRunReplnetPartition(t *testing.T) {
	cfg := ReplConfig{Rounds: 4}
	if testing.Short() {
		cfg.Rounds = 2
	}
	seed := time.Now().UnixNano()
	t.Logf("replnet partition seed %d", seed)
	if err := RunReplnetPartition(cfg, seed); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplnetShardMismatch re-runs a short campaign with follower
// shard counts different from the primary's — the wire stream routes by
// key, so topology never has to match across the cluster.
func TestRunReplnetShardMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestRunReplnet in short mode")
	}
	seed := time.Now().UnixNano()
	t.Logf("replnet shard-mismatch seed %d", seed)
	if err := RunReplnet(ReplConfig{
		Shards:          3,
		FollowerShards:  1,
		Rounds:          2,
		KeysPerWorker:   150,
		OpsPerBurst:     200,
		PersistFraction: 0.5,
	}, seed); err != nil {
		t.Fatal(err)
	}
}
