package crashtest

import "testing"

// TestReshardCrashProperty is the acceptance property for online elastic
// resharding: a live DB under concurrent single-key and transactional
// write load, with the reshard aborted at every protocol point in
// rotation and a power failure injected afterwards, must always recover
// entirely on one side of the cutover — the donor topology before the
// manifest commit, the target at or after it — with zero lost or
// duplicated keys and no torn transaction.
func TestReshardCrashProperty(t *testing.T) {
	cases := []ReshardConfig{
		{From: 4, To: 8, PersistFraction: 0.5}, // split
		{From: 8, To: 4, PersistFraction: 0.5}, // merge
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, cfg := range cases {
		if err := RunReshard(cfg, 11); err != nil {
			t.Fatalf("%d→%d: %v", cfg.From, cfg.To, err)
		}
	}
}

// TestReshardCrashPropertyFromUnsharded covers the 1→N expansion: an
// unsharded donor reshards into a cluster under the same crash matrix.
func TestReshardCrashPropertyFromUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestReshardCrashProperty in short mode")
	}
	if err := RunReshard(ReshardConfig{From: 1, To: 4, Workers: 1, PersistFraction: 0.5}, 13); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPointSetsDisjoint: a DB has one crash-point hook for both
// protocols, and a reshard runs a snapshot export inside it. Each campaign
// aborts only at its own point names, so the two sets must share none.
func TestCrashPointSetsDisjoint(t *testing.T) {
	snap := map[string]bool{}
	for _, p := range snapPoints {
		snap[p] = p != ""
	}
	for _, p := range reshardPoints {
		if snap[p] {
			t.Errorf("point %q is both a snapshot and a reshard point", p)
		}
	}
}
