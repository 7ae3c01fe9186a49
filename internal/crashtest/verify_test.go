package crashtest

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"incll/internal/shard"
)

// TestVerifyCatchesDivergence checks the checker: a store that differs
// from the model by one missing key, one extra key or one wrong value
// must fail verify, or no campaign could fail either.
func TestVerifyCatchesDivergence(t *testing.T) {
	st, _ := shard.Open(shard.Config{Shards: 2, ArenaWords: 1 << 20})
	s := st.Handle(0)
	stored := model{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key/%03d", i), fmt.Sprintf("value %d", i)
		s.PutBytes([]byte(k), []byte(v))
		stored[k] = v
	}
	if err := verify(s, stored); err != nil {
		t.Fatalf("verify rejects an exact model: %v", err)
	}
	cases := []struct {
		name  string
		plant func(m model)
	}{
		{"missing key", func(m model) { m["key/999"] = "never stored" }},
		{"extra key", func(m model) { delete(m, "key/017") }},
		{"wrong value", func(m model) { m["key/042"] = "value 24" }},
	}
	for _, c := range cases {
		want := maps.Clone(stored)
		c.plant(want)
		if err := verify(s, want); err == nil {
			t.Errorf("%s: verify passed", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

// TestPersistZeroMeansNothingSurvives: a zero PersistFraction is a crash
// that keeps no dirty line, not a request for the default; every
// campaign keeps it, and the store campaign recovers exactly under it.
func TestPersistZeroMeansNothingSurvives(t *testing.T) {
	c := Config{}
	c.setDefaults()
	r := ReshardConfig{}
	r.setDefaults()
	for name, p := range map[string]float64{
		"Config":        c.PersistFraction,
		"ReplConfig":    ReplConfig{}.withDefaults(replDefaults).PersistFraction,
		"ReshardConfig": r.PersistFraction,
	} {
		if p != 0 {
			t.Errorf("%s: PersistFraction 0 became %v", name, p)
		}
	}
	for _, shards := range []int{1, 4} {
		cfg := Config{Shards: shards, Keyspace: 300, OpsPerEpoch: 1000, Rounds: 3}
		if _, err := Run(cfg, 7); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
	}
}

// TestRunRejectsKeyspaceSmallerThanWorkers: a worker with no key of its
// own is a configuration error, not a panic.
func TestRunRejectsKeyspaceSmallerThanWorkers(t *testing.T) {
	_, err := Run(Config{Keyspace: 3, Workers: 4}, 0)
	if err == nil || !strings.Contains(err.Error(), "keyspace 3") {
		t.Fatalf("Run(keyspace 3, 4 workers) = %v, want a keyspace error", err)
	}
}
