package shard

// Cross-shard crash atomicity, the sharded analogue of the paper's §5.2
// methodology: run random workloads over a sharded cluster, crash it at
// arbitrary points — including inside the two-phase global checkpoint,
// with adversarially random persist fractions — restart, and check that
// every key committed at the last *global* epoch survives on its shard, no
// uncommitted key survives, and every shard recovers to the same epoch.
// Each campaign also runs on one shard, where the shard's own epoch commit
// is the commit point (no coordinator record).

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/testutil"
)

func TestPropertyCrossShardCrashAtomicity(t *testing.T) {
	for _, shards := range []int{4, 1} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run("", func(t *testing.T) {
				t.Parallel()
				runCrossShardCampaign(t, shards, seed)
			})
		}
	}
}

func runCrossShardCampaign(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const (
		workers  = 2
		keyspace = 3000
		rounds   = 4
		epochs   = 2
		ops      = 600
	)
	s, info := Open(testConfig(shards, workers))
	if info.Status != epoch.FreshStart {
		t.Fatalf("fresh cluster opened with status %v", info.Status)
	}

	committed := map[uint64]uint64{} // state at the last global boundary
	working := map[uint64]uint64{}   // state including the running epoch

	for round := 0; round < rounds; round++ {
		for e := 0; e < epochs; e++ {
			runShardEpoch(s, workers, keyspace, ops, working, rng.Int63())
			s.Advance()
			committed = cloneShardModel(working)
		}
		// Doomed partial epoch, then a crash at a random point: either
		// plain mid-epoch, or inside the two-phase global checkpoint.
		runShardEpoch(s, workers, keyspace, ops, working, rng.Int63())
		persist := rng.Float64()
		switch rng.Intn(3) {
		case 0:
			s.SimulateCrash(persist, rng.Int63())
		case 1:
			// Phase-1 crash: a random prefix of shards flushed, no global
			// commit — the doomed epoch must roll back everywhere.
			s.CrashDuringAdvance(rng.Intn(shards+1), 0, false, persist, rng.Int63())
		case 2:
			// Phase-2 crash: global record landed, a random prefix of
			// local commits did — the epoch must stand everywhere.
			s.CrashDuringAdvance(shards, rng.Intn(shards+1), true, persist, rng.Int63())
			committed = cloneShardModel(working)
		}

		var status epoch.Status
		s, status = reopenShard(t, s)
		if status != epoch.CrashRecovered {
			t.Fatalf("shards %d round %d: reopen status %v, want crash-recovered", shards, round, status)
		}
		working = cloneShardModel(committed)
		verifyShardModel(t, s, committed)
	}
}

// reopenShard reopens the cluster and asserts the single-epoch invariant.
func reopenShard(t *testing.T, s *Store) (*Store, epoch.Status) {
	t.Helper()
	s2, info := s.Reopen()
	e0 := info.Shards[0].Epoch
	for i, sr := range info.Shards {
		if sr.Epoch != e0 {
			t.Fatalf("shard %d recovered to epoch %d, shard 0 to %d", i, sr.Epoch, e0)
		}
	}
	return s2, info.Status
}

// verifyShardModel checks the cluster against the committed model: point
// lookups routed per shard, absence of uncommitted keys, and one global
// ordered scan.
func verifyShardModel(t *testing.T, s *Store, model map[uint64]uint64) {
	t.Helper()
	for k, v := range model {
		kb := core.EncodeUint64(k)
		sh := s.ShardStore(Route(kb, s.NumShards()))
		got, ok := sh.Get(kb)
		if !ok {
			t.Fatalf("globally committed key %d missing from shard %d", k, Route(kb, s.NumShards()))
		}
		if got != v {
			t.Fatalf("key %d = %d after recovery, committed %d", k, got, v)
		}
	}
	count := 0
	var prev []byte
	it := s.Handle(0).NewIter(core.IterOptions{})
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		kb, v := it.Key(), it.ValueUint64()
		if count > 0 && bytes.Compare(kb, prev) <= 0 {
			t.Fatalf("merged scan order violated at key %x", kb)
		}
		prev = append(prev[:0], kb...)
		count++
		k := decodeKey(kb)
		want, ok := model[k]
		if !ok {
			t.Fatalf("scan found uncommitted key %d after recovery", k)
		}
		if want != v {
			t.Fatalf("scan key %d = %d, committed %d", k, v, want)
		}
	}
	if count != len(model) {
		t.Fatalf("scan found %d keys, model has %d", count, len(model))
	}
}

// runShardEpoch has each worker mutate its own key range through the
// cluster façade (keys still land on arbitrary shards via the router),
// mirroring every mutation into the model.
func runShardEpoch(s *Store, workers int, keyspace uint64, ops int, model map[uint64]uint64, seed int64) {
	per := keyspace / uint64(workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle(w)
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			lo := uint64(w) * per
			local := map[uint64]uint64{}
			deleted := map[uint64]bool{}
			for i := 0; i < ops; i++ {
				k := lo + uint64(rng.Int63n(int64(per)))
				switch rng.Intn(6) {
				case 0:
					h.Delete(core.EncodeUint64(k))
					delete(local, k)
					deleted[k] = true
				case 1:
					h.Get(core.EncodeUint64(k))
				default:
					v := rng.Uint64() % 1_000_000
					h.Put(core.EncodeUint64(k), v)
					local[k] = v
					delete(deleted, k)
				}
			}
			mu.Lock()
			for k, v := range local {
				model[k] = v
			}
			for k := range deleted {
				delete(model, k)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
}

func cloneShardModel(m map[uint64]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func decodeKey(b []byte) uint64 {
	var k uint64
	for _, c := range b {
		k = k<<8 | uint64(c)
	}
	return k
}

// TestLargeValueCrossShardCrashAtEveryOp is the cross-shard analogue of
// core's crash-at-every-point property for large values: a committed
// prefix of KB-scale values, then every doomed-op prefix length, then a
// crash — plain, inside phase 1, or inside phase 2 of the coordinated
// checkpoint. Committed bytes must survive exactly on every shard.
func TestLargeValueCrossShardCrashAtEveryOp(t *testing.T) {
	for _, shards := range []int{1, 4} {
		runLargeValueCrashAtEveryOp(t, shards)
	}
}

func runLargeValueCrashAtEveryOp(t *testing.T, shards int) {
	const keys = 8
	pattern := testutil.Pattern
	sizes := []int{2, 60, 900, 2000, 4000}
	type op struct {
		k   uint64
		n   int
		del bool
	}
	var script []op
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		k := uint64(rng.Intn(keys))
		if rng.Intn(5) == 0 {
			script = append(script, op{k: k, del: true})
		} else {
			script = append(script, op{k: k, n: sizes[rng.Intn(len(sizes))]})
		}
	}

	for points := 0; points <= len(script); points++ {
		for policy := 0; policy < 3; policy++ {
			s, _ := Open(testConfig(shards, 1))
			committed := map[uint64][]byte{}
			for i := uint64(0); i < keys; i++ {
				v := pattern(i+500, 1500)
				s.Handle(0).PutBytes(core.EncodeUint64(i), v)
				committed[i] = v
			}
			s.Advance()

			for i, o := range script[:points] {
				if o.del {
					s.Handle(0).Delete(core.EncodeUint64(o.k))
				} else {
					s.Handle(0).PutBytes(core.EncodeUint64(o.k), pattern(uint64(i)*131+o.k, o.n))
				}
			}
			stand := false
			switch policy {
			case 0:
				s.SimulateCrash(0.5, int64(points))
			case 1:
				// Phase-1 crash: some shards flushed, no global commit.
				s.CrashDuringAdvance(points%(shards+1), 0, false, 0.5, int64(points))
			case 2:
				// Phase-2 crash: global record landed → the epoch stands.
				s.CrashDuringAdvance(shards, points%(shards+1), true, 0.5, int64(points))
				stand = true
			}
			s2, _ := reopenShard(t, s)
			if stand {
				// Fold the doomed ops into the expectation: they committed.
				for i, o := range script[:points] {
					if o.del {
						delete(committed, o.k)
					} else {
						committed[o.k] = pattern(uint64(i)*131+o.k, o.n)
					}
				}
			}
			for k, v := range committed {
				got, ok := s2.Handle(0).GetBytes(core.EncodeUint64(k))
				if !ok {
					t.Fatalf("shards %d point %d policy %d: committed key %d missing", shards, points, policy, k)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("shards %d point %d policy %d: key %d torn (%d vs %d bytes)",
						shards, points, policy, k, len(got), len(v))
				}
			}
			n := 0
			it := s2.Handle(0).NewIter(core.IterOptions{})
			for ok := it.First(); ok; ok = it.Next() {
				k := decodeKey(it.Key())
				if want, ok := committed[k]; !ok || !bytes.Equal(it.Value(), want) {
					t.Fatalf("shards %d point %d policy %d: scan key %d unexpected or torn", shards, points, policy, k)
				}
				n++
			}
			it.Close()
			if n != len(committed) {
				t.Fatalf("shards %d point %d policy %d: scan saw %d keys, want %d", shards, points, policy, n, len(committed))
			}
		}
	}
}
