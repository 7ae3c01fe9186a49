package crashtest

import "testing"

func TestCrashCampaignSingleWorker(t *testing.T) {
	cfg := Config{Workers: 1, Keyspace: 2000, OpsPerEpoch: 600, Rounds: 3, PersistFraction: 0.5}
	for seed := int64(0); seed < 4; seed++ {
		if _, err := Run(cfg, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCrashCampaignConcurrentWorkers(t *testing.T) {
	cfg := Config{Workers: 4, Keyspace: 4000, OpsPerEpoch: 500, Rounds: 3, PersistFraction: 0.5}
	for seed := int64(0); seed < 3; seed++ {
		if _, err := Run(cfg, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCrashCampaignHarshPersistence(t *testing.T) {
	// Almost nothing survives each crash.
	cfg := Config{PersistFraction: 0.02, Rounds: 3}
	if _, err := Run(cfg, 11); err != nil {
		t.Fatal(err)
	}
	// Almost everything survives (the failed epoch must still roll back).
	cfg.PersistFraction = 0.98
	if _, err := Run(cfg, 12); err != nil {
		t.Fatal(err)
	}
}

func TestCrashCampaignManySmallEpochs(t *testing.T) {
	cfg := Config{EpochsPerRound: 5, OpsPerEpoch: 150, Rounds: 4, PersistFraction: 0.5}
	if _, err := Run(cfg, 21); err != nil {
		t.Fatal(err)
	}
}

func TestCrashShardedCampaignsRecoverExactly(t *testing.T) {
	cfg := Config{Shards: 4, Workers: 2, Rounds: 3, Keyspace: 2000, OpsPerEpoch: 400, PersistFraction: 0.5}
	for seed := int64(0); seed < 3; seed++ {
		if _, err := Run(cfg, seed); err != nil {
			t.Fatalf("sharded seed %d: %v", seed, err)
		}
	}
}

func TestCrashCampaignByteValues(t *testing.T) {
	// The value heap under crash churn: inline values, out-of-place blocks
	// across several size classes, exact-byte verification (no torn or
	// partially recovered values).
	cfg := Config{Workers: 2, Keyspace: 1200, OpsPerEpoch: 400, Rounds: 3, ValueBytes: 1500,
		PersistFraction: 0.5}
	for seed := int64(0); seed < 3; seed++ {
		if _, err := Run(cfg, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCrashShardedCampaignByteValues(t *testing.T) {
	cfg := Config{Shards: 4, Workers: 2, Rounds: 3, Keyspace: 1200,
		OpsPerEpoch: 300, ValueBytes: 1500, ArenaWords: 1 << 24, PersistFraction: 0.5}
	for seed := int64(0); seed < 2; seed++ {
		if _, err := Run(cfg, seed); err != nil {
			t.Fatalf("sharded seed %d: %v", seed, err)
		}
	}
}
