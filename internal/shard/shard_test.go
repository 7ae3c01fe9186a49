package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/epoch"
)

func testConfig(shards, workers int) Config {
	return Config{Shards: shards, Workers: workers, ArenaWords: 1 << 21}
}

func TestRouteDeterministicAndInRange(t *testing.T) {
	for shards := 1; shards <= 8; shards++ {
		for i := uint64(0); i < 1000; i++ {
			k := core.EncodeUint64(i)
			r := Route(k, shards)
			if r < 0 || r >= shards {
				t.Fatalf("Route(%d, %d) = %d out of range", i, shards, r)
			}
			if r2 := Route(k, shards); r2 != r {
				t.Fatalf("Route(%d, %d) not deterministic: %d then %d", i, shards, r, r2)
			}
		}
	}
}

func TestRouteSpreadsSequentialKeys(t *testing.T) {
	const shards, keys = 4, 10_000
	var counts [shards]int
	for i := uint64(0); i < keys; i++ {
		counts[Route(core.EncodeUint64(i), shards)]++
	}
	for i, c := range counts {
		if c < keys/shards/2 || c > keys/shards*2 {
			t.Fatalf("shard %d owns %d of %d sequential keys; router is not spreading", i, c, keys)
		}
	}
}

func TestBasicOpsAcrossShards(t *testing.T) {
	s, info := Open(testConfig(4, 1))
	if info.Status != epoch.FreshStart {
		t.Fatalf("status = %v", info.Status)
	}
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if !s.Handle(0).Put(core.EncodeUint64(i), i*3) {
			t.Fatalf("key %d not newly inserted", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := s.Handle(0).Get(core.EncodeUint64(i)); !ok || v != i*3 {
			t.Fatalf("key %d = %d,%v want %d", i, v, ok, i*3)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Every shard should own a piece of the keyspace.
	for i := 0; i < s.NumShards(); i++ {
		if s.ShardStore(i).Len() == 0 {
			t.Fatalf("shard %d is empty after %d inserts", i, n)
		}
	}
	if !s.Handle(0).Delete(core.EncodeUint64(7)) {
		t.Fatal("delete missed key 7")
	}
	if _, ok := s.Handle(0).Get(core.EncodeUint64(7)); ok {
		t.Fatal("key 7 still present after delete")
	}
	if got := s.Len(); got != n-1 {
		t.Fatalf("Len = %d after delete, want %d", got, n-1)
	}
}

func TestMergedScanPreservesGlobalOrder(t *testing.T) {
	s, _ := Open(testConfig(4, 1))
	const n = 5000
	for i := uint64(0); i < n; i++ {
		s.Handle(0).Put(core.EncodeUint64(i), i)
	}
	var next uint64
	it := s.Handle(0).NewIter(core.IterOptions{})
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		if v := it.ValueUint64(); v != next {
			t.Fatalf("scan position %d delivered value %d", next, v)
		}
		next++
	}
	if next != n {
		t.Fatalf("scan visited %d, want %d", next, n)
	}
	// A walk from an interior start key.
	var seen []uint64
	for ok := it.SeekGE(core.EncodeUint64(1234)); ok && len(seen) < 10; ok = it.Next() {
		seen = append(seen, it.ValueUint64())
	}
	if len(seen) != 10 || seen[0] != 1234 || seen[9] != 1243 {
		t.Fatalf("walk from 1234 = %v", seen)
	}
	// An upper bound stops the merged walk: [100, 103) holds three keys.
	bounded := s.Handle(0).NewIter(core.IterOptions{LowerBound: core.EncodeUint64(100), UpperBound: core.EncodeUint64(103)})
	defer bounded.Close()
	seen = seen[:0]
	for ok := bounded.First(); ok; ok = bounded.Next() {
		seen = append(seen, bounded.ValueUint64())
	}
	if len(seen) != 3 || seen[0] != 100 || seen[2] != 102 {
		t.Fatalf("bounded walk [100, 103) = %v", seen)
	}
}

func TestConcurrentWorkersOnDistinctHandles(t *testing.T) {
	const workers, per = 4, 2000
	s, _ := Open(testConfig(4, workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle(w)
			lo := uint64(w) * per
			for i := lo; i < lo+per; i++ {
				h.Put(core.EncodeUint64(i), i)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != workers*per {
		t.Fatalf("Len = %d, want %d", got, workers*per)
	}
	if got := s.RebuildLen(); got != workers*per {
		t.Fatalf("RebuildLen = %d, want %d", got, workers*per)
	}
}

func TestReopenWithDifferentShardCountPanics(t *testing.T) {
	s, _ := Open(testConfig(4, 1))
	s.Handle(0).Put(core.EncodeUint64(1), 1)
	s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("reopening with a different shard count must panic")
		}
	}()
	s.coord.ResetReservations()
	bad := s.cfg
	bad.Shards = 2
	attach(s.coord, s.arenas[:2], bad)
}

func TestStatsAggregate(t *testing.T) {
	s, _ := Open(testConfig(2, 1))
	for i := uint64(0); i < 100; i++ {
		s.Handle(0).Put(core.EncodeUint64(i), i)
	}
	for i := uint64(0); i < 50; i++ {
		s.Handle(0).Get(core.EncodeUint64(i))
	}
	st := s.Stats()
	if st.Puts.Load() != 100 || st.Gets.Load() != 50 {
		t.Fatalf("aggregate puts=%d gets=%d", st.Puts.Load(), st.Gets.Load())
	}
	s.Advance()
	if nv := s.NVMStats(); nv.GlobalFlushes < int64(s.NumShards()) {
		t.Fatalf("aggregate NVM stats missing per-shard flushes: %v", nv)
	}
}

func TestSingleShardDegeneratesToOneStore(t *testing.T) {
	s, _ := Open(testConfig(1, 1))
	for i := uint64(0); i < 500; i++ {
		s.Handle(0).Put(core.EncodeUint64(i), i)
	}
	s.Advance()
	s.SimulateCrash(0.5, 11)
	s2, info := s.Reopen()
	if info.Status != epoch.CrashRecovered {
		t.Fatalf("status = %v", info.Status)
	}
	for i := uint64(0); i < 500; i++ {
		if v, ok := s2.Handle(0).Get(core.EncodeUint64(i)); !ok || v != i {
			t.Fatalf("key %d = %d,%v", i, v, ok)
		}
	}
}

func ExampleRoute() {
	fmt.Println(Route([]byte("user:1001"), 1))
	// Output: 0
}

func TestCoordinatorTickerStartStopIdempotent(t *testing.T) {
	s, _ := Open(testConfig(2, 1))
	var tk epoch.Ticker
	advance := func() { s.Advance() }
	tk.Start(2*time.Millisecond, advance)
	tk.Start(1*time.Millisecond, advance) // no-op: the coordinator keeps its cadence
	time.Sleep(20 * time.Millisecond)
	tk.Stop()
	tk.Stop() // idempotent
	g := s.GlobalEpoch()
	if g == 0 {
		t.Fatal("coordinated ticker never committed a global epoch")
	}
	time.Sleep(10 * time.Millisecond)
	if s.GlobalEpoch() != g {
		t.Fatal("coordinated ticker kept running after Stop")
	}
	s.Shutdown()
}
