package incll

import (
	"fmt"
	"sync"
	"testing"

	"incll/internal/testutil"
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

// TestRecycleWorkerZeroConcurrent: DB.Apply and DB.Begin run on worker 0
// from any goroutine, so they race for worker 0's recycled Txn — one gets
// it, the others allocate. Goroutines alternate Apply batches with
// read-modify-write transactions on a counter of their own; every
// committed write must be present and every counter must equal its
// goroutine's commits. Run under -race.
func TestRecycleWorkerZeroConcurrent(t *testing.T) {
	const (
		goroutines = 4
		rounds     = 500
	)
	db, _ := Open(Options{Shards: 2})
	counter := func(g uint64) []byte { return Key(1<<40 | g) }
	var wg sync.WaitGroup
	for g := uint64(0); g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < rounds; i++ {
				b := &Batch{}
				b.Put(Key(g<<32|2*i), i+1)
				b.Put(Key(g<<32|2*i+1), i+1)
				if err := db.Apply(b); err != nil {
					t.Errorf("goroutine %d apply %d: %v", g, i, err)
					return
				}
				tx := db.Begin()
				n, _ := tx.Get(counter(g))
				tx.Put(counter(g), n+1)
				tx.Put(Key(g<<32|1<<20|i), n+1)
				if err := tx.Commit(); err != nil {
					t.Errorf("goroutine %d transaction %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.TxnStats().Committed; got != 2*goroutines*rounds {
		t.Fatalf("committed = %d, want %d", got, 2*goroutines*rounds)
	}
	for g := uint64(0); g < goroutines; g++ {
		if n, _ := db.Get(counter(g)); n != rounds {
			t.Fatalf("goroutine %d counter = %d, want %d", g, n, rounds)
		}
		for i := uint64(0); i < rounds; i++ {
			for _, k := range []uint64{g<<32 | 2*i, g<<32 | 2*i + 1} {
				if v, ok := db.Get(Key(k)); !ok || v != i+1 {
					t.Fatalf("goroutine %d batch %d key %#x = %d,%v, want %d", g, i, k, v, ok, i+1)
				}
			}
			if v, ok := db.Get(Key(g<<32 | 1<<20 | i)); !ok || v != i+1 {
				t.Fatalf("goroutine %d transaction %d wrote %d,%v, want %d", g, i, v, ok, i+1)
			}
		}
	}
}

// TestTxnCommitAllocBudget holds one 4-read / 5-write BeginWorker→Commit
// on 4 shards — the shape of the benchmark's transfer — at zero heap
// allocations: the Txn is recycled through its worker's slot. It holds
// the same when the *Txn escapes through an interface-returning closure,
// as a benchmark client's begin does, and for DB.Apply of a prebuilt
// 5-op batch. (The parent of the allocation-lean Txn measured 47; with a
// Txn per Begin the three shapes read 1, 2 and 1.)
func TestTxnCommitAllocBudget(t *testing.T) {
	type tx interface {
		Get(k []byte) (uint64, bool)
		Put(k []byte, v uint64)
		Commit() error
	}
	db, _ := Open(Options{Shards: 4, Workers: 2})
	var keys [5][]byte
	for i := range keys {
		keys[i] = Key(uint64(i) * 7919)
		db.Put(keys[i], 1000)
	}
	db.Checkpoint()
	transfer := func(tx *Txn) {
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
	begin := func() tx { return db.BeginWorker(1) }
	b := &Batch{}
	for i, k := range keys {
		b.Put(k, uint64(i))
	}
	shapes := []struct {
		name string
		run  func()
	}{
		{"BeginWorker", func() { transfer(db.BeginWorker(1)) }},
		{"escaping BeginWorker", func() { transfer(begin().(*Txn)) }},
		{"Apply", func() {
			if err := db.Apply(b); err != nil {
				panic(fmt.Sprintf("apply: %v", err))
			}
		}},
	}
	// A race build's instrumentation may allocate; it keeps the loose bound
	// this test held before transactions were recycled.
	budget := 0.0
	if testutil.RaceEnabled {
		budget = 16
	}
	for _, sh := range shapes {
		got := testing.AllocsPerRun(200, sh.run)
		t.Logf("%s: %.0f allocations per transaction", sh.name, got)
		if got > budget {
			t.Errorf("%s: %.0f allocations per transaction, want at most %.0f", sh.name, got, budget)
		}
	}
}
