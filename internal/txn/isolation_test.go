package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"incll/internal/shard"
)

// TestCommitExcludesExactlyKeySharers pins the isolation contract on
// state, not timing. Commit A is parked at commit-start, holding its
// window. Commit B, on another worker and with no key (and no lock
// stripe) in common, must run to completion while A is parked. Commit C,
// which reads one of A's keys, must not reach commit-start before A is
// released.
func TestCommitExcludesExactlyKeySharers(t *testing.T) {
	cluster, _ := shard.Open(shard.Config{Shards: 4, Workers: 3, ArenaWords: 1 << 20})
	for k := uint64(0); k < 64; k++ {
		cluster.Put(key(k), bankInitBal)
	}
	cluster.Advance()
	m := managerFor(cluster)

	// A moves money between accounts 0 and 1. B needs two accounts whose
	// stripes are not A's, or it would wait for a lock it shares with A by
	// hash collision alone.
	aStripes := map[uint16]bool{stripeOf(key(0)): true, stripeOf(key(1)): true}
	var bKeys []uint64
	for k := uint64(2); len(bKeys) < 2; k++ {
		if !aStripes[stripeOf(key(k))] {
			bKeys = append(bKeys, k)
		}
	}

	var (
		mu     sync.Mutex
		events []string
	)
	logEvent := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	parked, gate := make(chan struct{}), make(chan struct{})
	starts := 0
	m.SetHook(func(p string) {
		if p != "commit-start" {
			return
		}
		mu.Lock()
		starts++
		n := starts
		mu.Unlock()
		logEvent(fmt.Sprintf("commit-start %d", n))
		if n == 1 { // A: park holding the window
			close(parked)
			<-gate
		}
	})

	transfer := func(worker int, from, to uint64) error {
		tx := m.Begin(worker)
		fv, _ := tx.Get(key(from))
		tv, _ := tx.Get(key(to))
		tx.Put(key(from), fv-1)
		tx.Put(key(to), tv+1)
		return tx.Commit()
	}

	aDone := make(chan error, 1)
	go func() { aDone <- transfer(0, 0, 1) }()
	<-parked

	// While A is parked it holds the stripes of both its keys and nothing
	// of B's.
	for k := range aStripes {
		if m.stripes[k].TryLock() {
			t.Fatalf("stripe %d of parked commit A is free", k)
		}
	}
	for _, k := range bKeys {
		s := &m.stripes[stripeOf(key(k))]
		if !s.TryLock() {
			t.Fatalf("stripe of account %d is held though no commit touches it", k)
		}
		s.Unlock()
	}

	// B completes under A's nose.
	if err := transfer(1, bKeys[0], bKeys[1]); err != nil {
		t.Fatalf("disjoint commit B while A is parked: %v", err)
	}
	logEvent("B done")

	// C updates account 1, which A writes, and touches nothing else (so it
	// holds no lock B could want). It blocks behind A; whenever it does
	// get to run, its commit-start must come after A's release.
	cDone := make(chan error, 1)
	cCommitting := make(chan struct{})
	go func() {
		tx := m.Begin(2)
		v, _ := tx.Get(key(1))
		tx.Put(key(1), v+5)
		close(cCommitting)
		cDone <- tx.Commit()
	}()
	<-cCommitting
	// Give C every chance to overtake a broken lock: another whole commit
	// runs here before A is released.
	if err := transfer(1, bKeys[0], bKeys[1]); err != nil {
		t.Fatalf("second disjoint commit: %v", err)
	}
	logEvent("A released")
	close(gate)

	if err := <-aDone; err != nil {
		t.Fatalf("commit A: %v", err)
	}
	// C read account 1 before A changed it, so once it gets the lock its
	// validation fails; a nil here means it validated while A was parked.
	if err := <-cDone; !errors.Is(err, ErrConflict) {
		t.Fatalf("commit C = %v, want ErrConflict (it read a key A then wrote)", err)
	}
	m.SetHook(nil)

	// Events: A's commit-start 1, B's 2, "B done", B's second 3, "A
	// released" — and C never reaches commit-start (it fails validation
	// first), so no commit-start may follow the release.
	released := -1
	for i, e := range events {
		if e == "A released" {
			released = i
		}
	}
	if released != 4 || len(events) != 5 {
		t.Fatalf("events %q: want three commit-starts and B's completion before A's release, none after", events)
	}
}

// TestKeyGranularCommitStress hammers a hot 16-account bank with random
// multi-key transfers from 2, 4 and 8 workers, a checkpoint ticker running
// throughout. Stripe collisions and true conflicts are constant, so a
// lock-order mistake deadlocks (the test must terminate) and an isolation
// hole breaks conservation.
func TestKeyGranularCommitStress(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			transfers := 1500
			if testing.Short() {
				transfers = 300
			}
			cluster, _ := shard.Open(shard.Config{Shards: 4, Workers: workers, ArenaWords: 1 << 21})
			for k := uint64(0); k < bankAccounts; k++ {
				cluster.Put(key(k), bankInitBal)
			}
			cluster.Advance()
			m := managerFor(cluster)
			m.StartTicker(time.Millisecond)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(workers*100 + w)))
					for i := 0; i < transfers; i++ {
						// 2..5 distinct accounts; the first pays each of the
						// others one unit. Every third transaction only reads.
						accts := r.Perm(bankAccounts)[:2+r.Intn(4)]
						for {
							tx := m.Begin(w)
							bal := make([]uint64, len(accts))
							for j, a := range accts {
								bal[j], _ = tx.Get(key(uint64(a)))
							}
							if pay := uint64(len(accts) - 1); i%3 != 0 && bal[0] >= pay {
								tx.Put(key(uint64(accts[0])), bal[0]-pay)
								for j := 1; j < len(accts); j++ {
									tx.Put(key(uint64(accts[j])), bal[j]+1)
								}
							}
							err := tx.Commit()
							if err == nil {
								break
							}
							if !errors.Is(err, ErrConflict) {
								t.Errorf("worker %d: commit: %v", w, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			m.StopTicker()

			var sum uint64
			for k := uint64(0); k < bankAccounts; k++ {
				v, _ := cluster.Get(key(k))
				sum += v
			}
			if sum != bankAccounts*bankInitBal {
				t.Fatalf("sum = %d, want %d", sum, bankAccounts*bankInitBal)
			}
		})
	}
}
