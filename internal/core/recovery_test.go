package core

import (
	"fmt"
	"math/rand"
	"testing"

	"incll/internal/epoch"
	"incll/internal/nvm"
)

// Crash again immediately after recovery, before any access: the second
// recovery must see the same committed state (recovery is idempotent and
// its repairs are flushed before the log generation retires).
func TestDoubleCrashBeforeAnyAccess(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 2000; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance()
	for i := uint64(0); i < 800; i++ {
		s.Put(EncodeUint64(i), 9999)
		s.Delete(EncodeUint64(i + 1000))
	}
	a.Crash(nvm.RandomPolicy(0.5, 3))
	_ = reopen(t, a, testConfig()) // recovery ran; no accesses
	a.Crash(nvm.RandomPolicy(0.5, 4))
	s3 := reopen(t, a, testConfig())
	verifyModel(t, s3, model, "double crash")
}

// Crash mid-lazy-recovery: access half the tree (repairing those nodes),
// crash again, and verify everything — both the eagerly-repaired and the
// never-accessed halves.
func TestCrashDuringLazyRecovery(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 4000; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance()
	for i := uint64(0); i < 4000; i += 2 {
		s.Put(EncodeUint64(i), 777)
	}
	a.Crash(nvm.RandomPolicy(0.6, 5))
	s2 := reopen(t, a, testConfig())
	// Touch only the low half: those nodes get lazily repaired (and the
	// repairs are cache-resident, not yet flushed).
	for i := uint64(0); i < 2000; i++ {
		if v, ok := s2.Get(EncodeUint64(i)); !ok || v != i {
			t.Fatalf("low half key %d = %d,%v", i, v, ok)
		}
	}
	// Power fails again before any boundary.
	a.Crash(nvm.RandomPolicy(0.4, 6))
	s3 := reopen(t, a, testConfig())
	verifyModel(t, s3, model, "crash during lazy recovery")
}

// A committed epoch between crashes must checkpoint the lazily repaired
// state so later crashes cannot resurrect the rolled-back values.
func TestAdvanceAfterRecoveryCommitsRepairs(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 1000; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance()
	for i := uint64(0); i < 1000; i++ {
		s.Put(EncodeUint64(i), 31337)
	}
	a.Crash(nvm.PersistAll) // everything dirty survives, including doomed values
	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "after first crash")
	s2.Advance() // commits the repaired image
	a.Crash(nvm.PersistNone)
	s3 := reopen(t, a, testConfig())
	verifyModel(t, s3, model, "repairs committed")
}

// Work performed after a recovery must itself be recoverable.
func TestWorkAfterRecoveryIsDurable(t *testing.T) {
	a, s := newStore(t)
	for i := uint64(0); i < 500; i++ {
		s.Put(EncodeUint64(i), 1)
	}
	s.Advance()
	s.Put(EncodeUint64(0), 2) // doomed
	a.Crash(nvm.RandomPolicy(0.5, 7))

	s2 := reopen(t, a, testConfig())
	model := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		model[i] = 1
	}
	for i := uint64(500); i < 900; i++ { // new committed work
		s2.Put(EncodeUint64(i), 5)
		model[i] = 5
	}
	s2.Advance()
	for i := uint64(0); i < 200; i++ { // doomed again
		s2.Delete(EncodeUint64(i))
	}
	a.Crash(nvm.RandomPolicy(0.5, 8))
	s3 := reopen(t, a, testConfig())
	verifyModel(t, s3, model, "post-recovery work")
}

// Scans immediately after a crash drive lazy recovery across the whole
// tree and must still see exactly the committed state, in order.
func TestScanDrivesLazyRecovery(t *testing.T) {
	a, s := newStore(t)
	for i := uint64(0); i < 3000; i++ {
		s.Put(EncodeUint64(i*2), i)
	}
	s.Advance()
	for i := uint64(0); i < 3000; i++ {
		s.Put(EncodeUint64(i*2+1), 1) // doomed inserts between every pair
	}
	a.Crash(nvm.RandomPolicy(0.5, 9))
	s2 := reopen(t, a, testConfig())
	var prev uint64
	count := 0
	it := s2.Handle(0).NewIter(IterOptions{})
	for ok := it.First(); ok; ok = it.Next() {
		ik := DecodeValue(it.Key())
		if ik%2 != 0 {
			t.Fatalf("doomed odd key %d visible in scan", ik)
		}
		if count > 0 && ik <= prev {
			t.Fatalf("scan order broken at %d", ik)
		}
		prev = ik
		count++
	}
	it.Close()
	if count != 3000 {
		t.Fatalf("scan found %d keys, want 3000", count)
	}
	if rec := s2.Stats().LazyRecoveries.Load(); rec == 0 {
		t.Fatal("scan recovered no nodes")
	}
}

// Concurrent workers immediately after recovery: lazy repair racing with
// normal operations from several handles must stay consistent.
func TestConcurrentAccessAfterCrash(t *testing.T) {
	a := nvm.New(nvm.Config{Words: testArenaWords})
	cfg := Config{Workers: 4, LogSegWords: 1 << 16, HeapWords: 1 << 20}
	s, _ := Open(a, cfg)
	const n = 8000
	for i := uint64(0); i < n; i++ {
		s.Put(EncodeUint64(i), i)
	}
	s.Advance()
	for i := uint64(0); i < n; i += 3 {
		s.Put(EncodeUint64(i), 42) // doomed
	}
	a.Crash(nvm.RandomPolicy(0.5, 10))
	a.ResetReservations()
	s2, st := Open(a, cfg)
	if st != epoch.CrashRecovered {
		t.Fatalf("status %v", st)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			h := s2.Handle(w)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(n))
				if v, ok := h.Get(EncodeUint64(k)); !ok || v != k {
					done <- errf("worker %d: key %d = %d,%v", w, k, v, ok)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// An interior split re-parents half of the node's children, which logs and
// stamps each of them with the current epoch. A child leaf nobody has
// visited since the restart still carries a failed epoch's InCLL state; it
// must be repaired before that stamp, or the lazy-recovery gate (nodeEpoch
// >= first epoch of the execution) never fires for it again.
func TestInteriorSplitRepairsUnvisitedChildren(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	const n, stride = 4000, 1000
	for i := uint64(0); i < n; i++ {
		s.Put(EncodeUint64(i*stride), i)
		model[i*stride] = i
	}
	s.Advance()
	// Doomed removals touch every leaf through InCLLp alone (a removal
	// never needs the external log), so only lazy recovery undoes them.
	for i := uint64(0); i < n; i += 2 {
		s.Delete(EncodeUint64(i * stride))
	}
	a.Crash(nvm.PersistAll)
	s2 := reopen(t, a, testConfig())
	// No reads: drive leaf and interior splits in one narrow key range, so
	// the interiors above it re-parent leaves that were never visited.
	for i := uint64(1); i <= 900; i++ {
		k := (n/2)*stride + i
		s2.Put(EncodeUint64(k), i)
		model[k] = i
	}
	verifyModel(t, s2, model, "interior splits before any read")
	s2.Advance()
	a.Crash(nvm.RandomPolicy(0.5, 12))
	verifyModel(t, reopen(t, a, testConfig()), model, "after a second crash")
}
