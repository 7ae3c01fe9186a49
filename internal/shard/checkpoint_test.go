package shard

import (
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/epoch"
)

func TestAdvanceKeepsShardsInLockstep(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, _ := Open(testConfig(shards, 1))
		if s.Epoch() != 1 || s.GlobalEpoch() != 0 {
			t.Fatalf("shards %d: fresh cluster at epoch %d / global %d", shards, s.Epoch(), s.GlobalEpoch())
		}
		for i := 0; i < 3; i++ {
			s.Handle(0).Put(core.EncodeUint64(uint64(i)), uint64(i))
			s.Advance()
		}
		if s.Epoch() != 4 || s.GlobalEpoch() != 3 {
			t.Fatalf("shards %d: after 3 advances: epoch %d / global %d, want 4 / 3", shards, s.Epoch(), s.GlobalEpoch())
		}
		for i := 0; i < s.NumShards(); i++ {
			if e := s.ShardStore(i).Epochs().Current(); e != 4 {
				t.Fatalf("shards %d: shard %d at epoch %d, want 4", shards, i, e)
			}
		}
	}
}

func TestShutdownCleanRestart(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, _ := Open(testConfig(shards, 1))
		for i := uint64(0); i < 1000; i++ {
			s.Handle(0).Put(core.EncodeUint64(i), i+1)
		}
		s.Shutdown()
		s.crashArenas(0, 99) // total power loss after clean shutdown
		s2, info := s.Reopen()
		if info.Status != epoch.CleanRestart {
			t.Fatalf("shards %d: status = %v, want clean-restart", shards, info.Status)
		}
		for i := uint64(0); i < 1000; i++ {
			if v, ok := s2.Handle(0).Get(core.EncodeUint64(i)); !ok || v != i+1 {
				t.Fatalf("shards %d: key %d = %d,%v after clean restart", shards, i, v, ok)
			}
		}
	}
}

func TestTickerAdvancesGlobally(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s, _ := Open(testConfig(shards, 1))
		var tk epoch.Ticker
		tk.Start(2*time.Millisecond, func() { s.Advance() })
		deadline := time.Now().Add(2 * time.Second)
		for s.GlobalEpoch() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		tk.Stop()
		if s.GlobalEpoch() < 3 {
			t.Fatalf("shards %d: ticker advanced the global epoch only to %d", shards, s.GlobalEpoch())
		}
		for i := 0; i < s.NumShards(); i++ {
			if e := s.ShardStore(i).Epochs().Current(); e != s.Epoch() {
				t.Fatalf("shards %d: shard %d at epoch %d, cluster at %d", shards, i, e, s.Epoch())
			}
		}
	}
}

// populate writes keys [0, n) = base+i and commits them globally.
func populate(t *testing.T, s *Store, n uint64, base uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		s.Handle(0).Put(core.EncodeUint64(i), base+i)
	}
	s.Advance()
}

// verifyAll checks keys [0, n) = base+i on the recovered cluster and the
// single-epoch invariant.
func verifyAll(t *testing.T, s *Store, n uint64, base uint64) {
	t.Helper()
	e0 := s.ShardStore(0).Epochs().Current()
	for i := 0; i < s.NumShards(); i++ {
		if e := s.ShardStore(i).Epochs().Current(); e != e0 {
			t.Fatalf("shard %d recovered to epoch %d, shard 0 to %d", i, e, e0)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := s.Handle(0).Get(core.EncodeUint64(i)); !ok || v != base+i {
			t.Fatalf("key %d = %d,%v want %d", i, v, ok, base+i)
		}
	}
}

func TestCrashDuringPrepareRollsBackEveryShard(t *testing.T) {
	const n = 2000
	for _, shards := range []int{1, 4} {
		for prepared := 0; prepared <= shards; prepared++ {
			s, _ := Open(testConfig(shards, 1))
			populate(t, s, n, 1000) // committed at the global boundary
			for i := uint64(0); i < n; i++ {
				s.Handle(0).Put(core.EncodeUint64(i), 0xDEAD) // doomed epoch
			}
			s.CrashDuringAdvance(prepared, 0, false, 0.5, int64(prepared)*31+7)
			s2, info := s.Reopen()
			if info.Status != epoch.CrashRecovered {
				t.Fatalf("shards=%d prepared=%d: status %v", shards, prepared, info.Status)
			}
			// The global record never moved: every shard must roll back the
			// doomed epoch, even the ones whose flush completed.
			verifyAll(t, s2, n, 1000)
			if g := s2.GlobalEpoch(); g != 1 {
				t.Fatalf("shards=%d prepared=%d: global epoch %d, want 1 (the populate commit)", shards, prepared, g)
			}
		}
	}
}

func TestCrashAfterGlobalCommitKeepsEpochOnEveryShard(t *testing.T) {
	const n = 2000
	for _, shards := range []int{1, 4} {
		for localCommits := 0; localCommits <= shards; localCommits++ {
			s, _ := Open(testConfig(shards, 1))
			populate(t, s, n, 1000)
			for i := uint64(0); i < n; i++ {
				s.Handle(0).Put(core.EncodeUint64(i), 5000+i) // epoch being committed
			}
			// All shards prepared, global record landed, only a prefix of
			// the local commits did. One shard has no global record: there
			// the commit is its own, whatever localCommits says.
			s.CrashDuringAdvance(shards, localCommits, true, 0.5, int64(localCommits)*17+3)
			s2, info := s.Reopen()
			if info.Status != epoch.CrashRecovered {
				t.Fatalf("shards=%d localCommits=%d: status %v", shards, localCommits, info.Status)
			}
			// The global record committed the epoch: every shard must keep
			// it, even the ones whose local header update was lost.
			verifyAll(t, s2, n, 5000)
			if g := s2.GlobalEpoch(); g != 2 {
				t.Fatalf("shards=%d localCommits=%d: global epoch %d, want 2 (populate + the interrupted commit)", shards, localCommits, g)
			}
		}
	}
}

func TestCrashDuringAdvanceProtocolViolationsPanic(t *testing.T) {
	s, _ := Open(testConfig(2, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("global commit before all prepared must panic")
			}
		}()
		s.CrashDuringAdvance(1, 0, true, 1, 1)
	}()
	s2, _ := Open(testConfig(2, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("local commit before global record must panic")
		}
	}()
	s2.CrashDuringAdvance(2, 1, false, 1, 1)
}
