package txn

// The atomicity property: with a crash injected at every point inside
// Txn.Commit — after the intent is written, before and after the record's
// one fence, between every applied write — and with the dirty
// cache surviving fully, partially, or not at all, recovery must observe
// either all of the transaction's writes or none, and the bank's total
// balance must be conserved. Run for a single store and for a 4-shard
// cluster whose transfer spans shards.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"incll/internal/nvm"
	"incll/internal/shard"
	"incll/internal/testutil"
)

const (
	bankAccounts = 16
	bankInitBal  = 1000
)

// bank abstracts the single-store and sharded fixtures behind the pieces
// the property needs.
type bank interface {
	manager() *Manager
	get(k []byte) (uint64, bool)
	// crash injects a power failure where each dirty line survives with
	// probability persist, reopens, and returns the replay count.
	crash(persist float64, seed int64) int
	// transferKeys returns the debit account and two credit accounts (for
	// the sharded bank, guaranteed to span at least two shards).
	transferKeys() [3]uint64
}

// ---- single-store bank ----

type singleBank struct{ f *singleFixture }

func newSingleBank(t *testing.T) *singleBank {
	f := newSingle(t)
	for k := uint64(0); k < bankAccounts; k++ {
		f.store.Put(key(k), bankInitBal)
	}
	f.store.Advance()
	return &singleBank{f: f}
}

func (b *singleBank) manager() *Manager            { return b.f.m }
func (b *singleBank) get(k []byte) (uint64, bool)  { return b.f.store.Get(k) }
func (b *singleBank) transferKeys() [3]uint64      { return [3]uint64{0, 1, 2} }
func (b *singleBank) crash(p float64, s int64) int { return b.f.crash(nvm.RandomPolicy(p, s)) }

// ---- sharded bank ----

type shardBank struct {
	cluster *shard.Store
	m       *Manager
	shards  int
}

func newShardBank(t *testing.T, shards int) *shardBank {
	cfg := shard.Config{Shards: shards, Workers: 2, ArenaWords: 1 << 20}
	if shards > 64 {
		// The wide-ShardSet cluster only needs to hold the bank; shrink the
		// per-shard footprint so 128 arenas stay cheap to build per point.
		cfg.ArenaWords, cfg.LogSegWords, cfg.TxnSegWords = 1<<15, 1<<10, 1<<9
	}
	cluster, _ := shard.Open(cfg)
	for k := uint64(0); k < bankAccounts; k++ {
		cluster.Handle(0).Put(key(k), bankInitBal)
	}
	cluster.Advance()
	return &shardBank{cluster: cluster, m: managerFor(cluster), shards: shards}
}

func (b *shardBank) manager() *Manager           { return b.m }
func (b *shardBank) get(k []byte) (uint64, bool) { return b.cluster.Handle(0).Get(k) }

func (b *shardBank) transferKeys() [3]uint64 {
	// Pick accounts so the write set spans at least two shards.
	first := shard.Route(key(0), b.shards)
	for k := uint64(1); k < bankAccounts; k++ {
		if shard.Route(key(k), b.shards) != first {
			return [3]uint64{0, k, (k % (bankAccounts - 1)) + 1}
		}
	}
	panic("router sent every account to one shard")
}

func (b *shardBank) crash(p float64, s int64) int {
	b.cluster.SimulateCrash(p, s)
	var replayed int
	b.cluster, _ = b.cluster.Reopen()
	b.m, replayed = ForCluster(b.cluster)
	return replayed
}

// ---- the property ----

func TestPropertyBankTransferCrashInjection(t *testing.T) {
	t.Run("single-shard", func(t *testing.T) {
		t.Parallel()
		runTransferInjection(t, func() bank { return newSingleBank(t) })
	})
	t.Run("cross-shard", func(t *testing.T) {
		t.Parallel()
		runTransferInjection(t, func() bank { return newShardBank(t, 4) })
	})
	t.Run("cross-shard-wide", func(t *testing.T) {
		// Past the old 64-shard inline-bitmask ceiling: the same atomicity
		// and conservation property on the spilled ShardSet representation.
		t.Parallel()
		runTransferInjection(t, func() bank { return newShardBank(t, 128) })
	})
}

func runTransferInjection(t *testing.T, fresh func() bank) {
	for _, persist := range []float64{0, 0.5, 1} {
		for point := 0; ; point++ {
			completed := runOneInjection(t, fresh(), point, persist)
			if completed {
				break // the hook never reached this index: commit finished
			}
		}
	}
}

// runOneInjection builds a fresh bank, runs one transfer whose commit is
// stopped at hook point index `point`, crashes, recovers, and checks the
// property. Returns true when the commit completed because the protocol
// has fewer than `point` points.
func runOneInjection(t *testing.T, b bank, point int, persist float64) bool {
	t.Helper()
	ks := b.transferKeys()
	debit, credit1, credit2 := key(ks[0]), key(ks[1]), key(ks[2])

	fired := 0
	var stoppedAt string
	b.manager().SetHook(func(p string) {
		if fired == point {
			stoppedAt = p
			panic(InjectedCrash{Point: p})
		}
		fired++
	})

	// Read-modify-write transfer: move 10+7 out of the debit account.
	tx := b.manager().Begin(0)
	dv, _ := tx.Get(debit)
	c1, _ := tx.Get(credit1)
	c2, _ := tx.Get(credit2)
	tx.Put(debit, dv-17)
	tx.Put(credit1, c1+10)
	tx.Put(credit2, c2+7)
	err := tx.Commit()
	b.manager().SetHook(nil)
	if err == nil {
		return true
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("point %d: commit = %v, want ErrInjected", point, err)
	}

	replayed := b.crash(persist, int64(point)*1000+int64(persist*10))

	// Conservation: the total balance never changes.
	var sum uint64
	for k := uint64(0); k < bankAccounts; k++ {
		v, ok := b.get(key(k))
		if !ok {
			t.Fatalf("point %q persist %.1f: account %d missing after recovery", stoppedAt, persist, k)
		}
		sum += v
	}
	if sum != bankAccounts*bankInitBal {
		t.Fatalf("point %q persist %.1f: sum = %d, want %d (conservation violated)",
			stoppedAt, persist, sum, bankAccounts*bankInitBal)
	}

	// Atomicity: the recovered balances are exactly pre-state or exactly
	// post-state, never a mix.
	got := [3]uint64{}
	for i, k := range [3][]byte{debit, credit1, credit2} {
		got[i], _ = b.get(k)
	}
	pre := [3]uint64{bankInitBal, bankInitBal, bankInitBal}
	post := [3]uint64{bankInitBal - 17, bankInitBal + 10, bankInitBal + 7}
	applied := got == post
	if !applied && got != pre {
		t.Fatalf("point %q persist %.1f: balances %v are neither pre %v nor post %v",
			stoppedAt, persist, got, pre, post)
	}

	// Sharper expectations where the protocol pins the outcome: anything
	// before the mark write must roll back; a crash after the mark fence —
	// at commit-durable or between applied writes — must replay.
	switch {
	case afterFence(stoppedAt):
		if !applied || replayed != 1 {
			t.Fatalf("crash at %q (after the mark fence): applied=%v replayed=%d, want full replay", stoppedAt, applied, replayed)
		}
	case stoppedAt != "mark-written":
		if applied || replayed != 0 {
			t.Fatalf("crash at %q (before the mark): applied=%v replayed=%d, want rollback", stoppedAt, applied, replayed)
		}
	case persist == 0:
		if applied {
			t.Fatalf("unfenced mark with no line surviving: transaction must roll back")
		}
	case persist == 1:
		if !applied {
			t.Fatalf("unfenced mark with every line surviving: transaction must replay")
		}
	}
	return false
}

// afterFence reports whether a commit hook point follows the record's fence:
// the transaction is durable there, and every write of it is replayed.
func afterFence(point string) bool {
	return point == "commit-durable" || strings.HasPrefix(point, "applied-")
}

// TestPropertyBankTransferConcurrent runs many concurrent conflicting
// transfers with retries across random crashes and checks conservation
// after every recovery — the transfer invariant under real contention.
func TestPropertyBankTransferConcurrent(t *testing.T) {
	const (
		workers   = 2
		rounds    = 3
		transfers = 120
	)
	cluster, _ := shard.Open(shard.Config{Shards: 4, Workers: workers, ArenaWords: 1 << 20})
	for k := uint64(0); k < bankAccounts; k++ {
		cluster.Handle(0).Put(key(k), bankInitBal)
	}
	cluster.Advance()
	m := managerFor(cluster)

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < transfers; i++ {
					from := uint64(r.Intn(bankAccounts))
					to := uint64(r.Intn(bankAccounts))
					if from == to {
						continue
					}
					amt := uint64(r.Intn(5) + 1)
					for {
						tx := m.Begin(w)
						fv, _ := tx.Get(key(from))
						tv, _ := tx.Get(key(to))
						if fv < amt {
							tx.Abort()
							break
						}
						tx.Put(key(from), fv-amt)
						tx.Put(key(to), tv+amt)
						err := tx.Commit()
						if err == nil {
							break
						}
						if !errors.Is(err, ErrConflict) {
							panic(fmt.Sprintf("worker %d: commit: %v", w, err))
						}
					}
				}
			}(w, rng.Int63())
		}
		wg.Wait()

		cluster.SimulateCrash(rng.Float64(), rng.Int63())
		cluster, _ = cluster.Reopen()
		m, _ = ForCluster(cluster)

		var sum uint64
		for k := uint64(0); k < bankAccounts; k++ {
			v, ok := cluster.Handle(0).Get(key(k))
			if !ok {
				t.Fatalf("round %d: account %d missing", round, k)
			}
			sum += v
		}
		if sum != bankAccounts*bankInitBal {
			t.Fatalf("round %d: sum = %d, want %d", round, sum, bankAccounts*bankInitBal)
		}
	}
}

// TestPropertyHotLeafMixedCrash interleaves committed and plain writes in
// the same leaves: two workers each alternate a transfer between two even
// keys, which also inserts the transfer's ordinal key, with a plain Put of
// an odd key. The transfers' inline updates carry no undo of their own
// (their records do), while the plain Puts claim ValInCLLs, relocate and
// log around them. After a crash at persist 0, 0.5 and 1 the even keys must
// conserve the total, every acknowledged ordinal must be present, and every
// odd key must hold its checkpoint value.
func TestPropertyHotLeafMixedCrash(t *testing.T) {
	const (
		workers   = 2
		hotKeys   = 28 // two leaves: evens are accounts, odds take plain Puts
		transfers = 60 // per worker and round; one epoch's intents fit the segment
		oddVal    = 5000
	)
	ordKey := func(w, n int) []byte { return key(1<<32 | uint64(w)<<16 | uint64(n)) }
	f := newSingle(t)
	for k := uint64(0); k < hotKeys; k++ {
		if k%2 == 0 {
			f.store.Put(key(k), bankInitBal)
		} else {
			f.store.Put(key(k), oddVal+k)
		}
	}
	f.store.Advance()

	acked := [workers]int{}
	rng := rand.New(rand.NewSource(36))
	for _, persist := range []float64{0, 0.5, 1} {
		for round := 0; round < 2; round++ {
			epoch := f.store.Epochs().Current()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int, seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					h := f.store.Handle(w)
					for i := 0; i < transfers; i++ {
						from, to := 2*uint64(r.Intn(hotKeys/2)), 2*uint64(r.Intn(hotKeys/2))
						for from != to {
							tx := f.m.Begin(w)
							fv, _ := tx.Get(key(from))
							tv, _ := tx.Get(key(to))
							if fv == 0 {
								tx.Abort()
								break
							}
							tx.Put(key(from), fv-1)
							tx.Put(key(to), tv+1)
							tx.Put(ordKey(w, acked[w]+1), 1)
							err := tx.Commit()
							if err == nil {
								acked[w]++
								break
							}
							if !errors.Is(err, ErrConflict) {
								panic(fmt.Sprintf("worker %d: commit: %v", w, err))
							}
						}
						h.Put(key(2*uint64(r.Intn(hotKeys/2))+1), uint64(r.Intn(1000)))
					}
				}(w, rng.Int63())
			}
			wg.Wait()
			if f.store.Epochs().Current() != epoch {
				t.Fatalf("an epoch boundary fell inside the round: the odd keys' Puts committed")
			}

			ctx := fmt.Sprintf("persist %.1f round %d", persist, round)
			f.crash(nvm.RandomPolicy(persist, rng.Int63()))
			var sum uint64
			for k := uint64(0); k < hotKeys; k++ {
				v, ok := f.store.Get(key(k))
				switch {
				case !ok:
					t.Fatalf("%s: key %d missing", ctx, k)
				case k%2 == 0:
					sum += v
				case v != oddVal+k:
					t.Fatalf("%s: odd key %d = %d, want its checkpoint value %d", ctx, k, v, oddVal+k)
				}
			}
			if want := uint64(hotKeys / 2 * bankInitBal); sum != want {
				t.Fatalf("%s: sum = %d, want %d (conservation violated)", ctx, sum, want)
			}
			for w := 0; w < workers; w++ {
				for n := 1; n <= acked[w]; n++ {
					if _, ok := f.store.Get(ordKey(w, n)); !ok {
						t.Fatalf("%s: worker %d's acknowledged transfer %d is missing", ctx, w, n)
					}
				}
				if _, ok := f.store.Get(ordKey(w, acked[w]+1)); ok {
					t.Fatalf("%s: worker %d has an ordinal past its last acknowledged %d", ctx, w, acked[w])
				}
			}
		}
	}
}

// TestPropertyByteValueCommitCrashInjection is the crash-at-every-point
// property for byte-valued transactions: a commit that overwrites one key
// with a multi-KB value, writes a fresh large value, and deletes a third,
// stopped at every protocol point under persist 0/0.5/1. Recovery must
// expose exactly the pre-state or exactly the post-state, byte for byte —
// never a torn value, never a mix.
func TestPropertyByteValueCommitCrashInjection(t *testing.T) {
	pattern := testutil.Pattern
	pre1, pre3 := pattern(1, 1800), pattern(3, 40)
	post1, post2 := pattern(11, 700), pattern(12, 3000)

	for _, persist := range []float64{0, 0.5, 1} {
		for point := 0; ; point++ {
			f := newSingle(t)
			f.store.PutBytes(key(1), pre1)
			f.store.PutBytes(key(3), pre3)
			f.store.Advance()

			fired := 0
			var stoppedAt string
			f.m.SetHook(func(p string) {
				if fired == point {
					stoppedAt = p
					panic(InjectedCrash{Point: p})
				}
				fired++
			})
			tx := f.m.Begin(0)
			tx.PutBytes(key(1), post1)
			tx.PutBytes(key(2), post2)
			tx.Delete(key(3))
			err := tx.Commit()
			f.m.SetHook(nil)
			if err == nil {
				break // fewer than `point` protocol points: commit finished
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("point %d: commit = %v, want ErrInjected", point, err)
			}
			replayed := f.crash(nvm.RandomPolicy(persist, int64(point)*7+int64(persist*10)))

			g1, ok1 := f.store.Handle(0).GetBytes(key(1))
			g2, ok2 := f.store.Handle(0).GetBytes(key(2))
			g3, ok3 := f.store.Handle(0).GetBytes(key(3))
			isPre := ok1 && bytes.Equal(g1, pre1) && !ok2 && ok3 && bytes.Equal(g3, pre3)
			isPost := ok1 && bytes.Equal(g1, post1) && ok2 && bytes.Equal(g2, post2) && !ok3
			if !isPre && !isPost {
				t.Fatalf("point %q persist %.1f replayed %d: state is neither pre nor post "+
					"(k1 %d bytes ok=%v, k2 %d bytes ok=%v, k3 %d bytes ok=%v)",
					stoppedAt, persist, replayed, len(g1), ok1, len(g2), ok2, len(g3), ok3)
			}
			if afterFence(stoppedAt) && !isPost {
				t.Fatalf("point %q persist %.1f: crash after the mark fence must replay the byte writes", stoppedAt, persist)
			}
			if !afterFence(stoppedAt) && stoppedAt != "mark-written" && !isPre {
				t.Fatalf("point %q persist %.1f: crash before the mark must roll back", stoppedAt, persist)
			}
		}
	}
}
