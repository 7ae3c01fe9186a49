package incll

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentApplySameWorker: DB.Apply (like DB.Begin) runs on worker 0
// from whatever goroutine calls it, so commits on disjoint keys — which
// share no key lock — still share worker 0's intent segment, undo-log
// segment and allocator lists. The transaction manager must keep
// same-worker commits mutually exclusive; run under -race.
func TestConcurrentApplySameWorker(t *testing.T) {
	const (
		goroutines = 4
		batches    = 2000
	)
	db, _ := Open(Options{Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < batches; i++ {
				b := &Batch{}
				for j := uint64(0); j < 3; j++ {
					b.Put(Key(g<<32|i*3+j), i+1)
				}
				if err := db.Apply(b); err != nil {
					t.Errorf("goroutine %d batch %d: %v", g, i, err)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := db.TxnStats().Committed; got != goroutines*batches {
		t.Fatalf("committed = %d, want %d", got, goroutines*batches)
	}
	for g := uint64(0); g < goroutines; g++ {
		for _, i := range []uint64{0, batches/2*3 + 1, batches*3 - 1} {
			if v, ok := db.Get(Key(g<<32 | i)); !ok || v != i/3+1 {
				t.Fatalf("goroutine %d key %d = %d,%v, want %d", g, i, v, ok, i/3+1)
			}
		}
	}
}

// TestTxnCommitAllocBudget bounds the heap allocations of one 4-read /
// 5-write BeginWorker→Commit on 4 shards — the shape of the benchmark's
// transfer. The parent of the allocation-lean Txn measured 47.
func TestTxnCommitAllocBudget(t *testing.T) {
	const budget = 16
	db, _ := Open(Options{Shards: 4, Workers: 2})
	var keys [5][]byte
	for i := range keys {
		keys[i] = Key(uint64(i) * 7919)
		db.Put(keys[i], 1000)
	}
	db.Checkpoint()
	transfer := func() {
		tx := db.BeginWorker(1)
		var bal [4]uint64
		for i := range bal {
			bal[i], _ = tx.Get(keys[i])
		}
		tx.Put(keys[0], bal[0]-1)
		tx.Put(keys[1], bal[1]-1)
		tx.Put(keys[2], bal[2]+1)
		tx.Put(keys[3], bal[3]+1)
		tx.Put(keys[4], bal[0])
		if err := tx.Commit(); err != nil {
			panic(fmt.Sprintf("commit: %v", err))
		}
	}
	got := testing.AllocsPerRun(200, transfer)
	t.Logf("%.0f allocations per transfer", got)
	if got > budget {
		t.Fatalf("%.0f allocations per transfer, budget %d", got, budget)
	}
}
