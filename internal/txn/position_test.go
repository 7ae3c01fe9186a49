package txn

// A transactional read leaves a position (core.Pos) that validation and
// apply start from. These tests land each kind of change that moves a
// leaf's version between Txn.Get and Commit and check that the position
// is dropped for a descent (the fallback) and that the commit ends exactly
// as it does when the reads carry no position at all.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/nvm"
	"incll/internal/shard"
)

// positionCase is one change that another worker lands on the read keys'
// leaf between Txn.Get and Commit.
type positionCase struct {
	name  string
	keys  [][]byte // stored and checkpointed before the transaction
	reads [][]byte // read, then written back incremented
	land  func(h core.Handle)
	err   error // the commit's outcome
	fell  int64 // positions the commit finds stale
}

func seqKeys(n int) [][]byte {
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = key(uint64(i))
	}
	return ks
}

// longKey is a key of n > 8 bytes whose last byte is last; keys of one
// length share every layer but the last.
func longKey(n int, last byte) []byte {
	k := bytes.Repeat([]byte{'p'}, n)
	k[n-1] = last
	return k
}

func positionCases() []positionCase {
	leaf := seqKeys(11) // one leaf, slots 11..13 free
	full := seqKeys(core.LeafWidth)
	long := [][]byte{longKey(9, 'a'), longKey(9, 'c'), longKey(17, 'a'), longKey(17, 'c')}
	return []positionCase{
		{name: "insert", keys: leaf, reads: [][]byte{key(3)},
			land: func(h core.Handle) { h.Put(key(11), 1) }, fell: 1},
		{name: "removal", keys: leaf, reads: [][]byte{key(3)},
			land: func(h core.Handle) { h.Delete(key(5)) }, fell: 1},
		{name: "removal-of-read-key", keys: leaf, reads: [][]byte{key(3)},
			land: func(h core.Handle) { h.Delete(key(3)) }, err: ErrConflict, fell: 1},
		// Keys 1 and 2 share a value line: key 1's update claims the line's
		// ValInCLL, so key 2's overwrite (with its own value) relocates it.
		{name: "relocation", keys: leaf, reads: [][]byte{key(2)},
			land: func(h core.Handle) {
				h.PutBytes(key(1), positionValue(key(1)))
				h.PutBytes(key(2), positionValue(key(2)))
			}, fell: 1},
		{name: "relocation-new-value", keys: leaf, reads: [][]byte{key(2)},
			land: func(h core.Handle) {
				h.PutBytes(key(1), positionValue(key(1)))
				h.Put(key(2), 7)
			}, err: ErrConflict, fell: 1},
		{name: "split", keys: full, reads: [][]byte{key(1), key(12)},
			land: func(h core.Handle) { h.Put(key(core.LeafWidth), 1) }, fell: 2},
		{name: "absent-then-inserted", keys: leaf, reads: [][]byte{key(50)},
			land: func(h core.Handle) { h.Put(key(50), 1) }, err: ErrConflict, fell: 1},
		// Keys longer than 8 bytes carry the position of their last layer.
		{name: "long-unchanged", keys: long, reads: [][]byte{long[0], long[2]},
			land: func(core.Handle) {}, fell: 0},
		{name: "long-insert", keys: long, reads: [][]byte{long[0], long[2]},
			land: func(h core.Handle) {
				h.Put(longKey(9, 'b'), 1)
				h.Put(longKey(17, 'b'), 1)
			}, fell: 2},
		{name: "long-absent-then-inserted", keys: long, reads: [][]byte{longKey(9, 'b'), longKey(17, 'b')},
			land: func(h core.Handle) { h.Put(longKey(17, 'b'), 1) }, err: ErrConflict, fell: 1},
	}
}

// positionValue is the value a case stores under k before the transaction.
func positionValue(k []byte) []byte {
	return core.AppendValueUint64(nil, 100+uint64(k[len(k)-1]))
}

// runPositionCase runs c once and returns the commit's error, the
// fallbacks it took and every key's value afterwards. noPos drops the
// reads' positions before Commit, so validation descends for every key.
func runPositionCase(t *testing.T, c positionCase, noPos bool) (error, int64, map[string]string) {
	t.Helper()
	f := newSingle(t)
	for _, k := range c.keys {
		f.store.PutBytes(k, positionValue(k))
	}
	f.m.Advance()

	tx := f.m.Begin(0)
	for _, k := range c.reads {
		v, _ := tx.Get(k)
		tx.Put(k, v+1)
	}
	c.land(f.store.Handle(1))
	if noPos {
		for i := range tx.reads {
			tx.reads[i].pos = core.Pos{}
		}
	}
	before := f.m.fallbacks.Load()
	err := tx.Commit()
	fell := f.m.fallbacks.Load() - before

	state := map[string]string{}
	it := f.store.Handle(0).NewIter(core.IterOptions{})
	for ok := it.First(); ok; ok = it.Next() {
		state[string(it.Key())] = fmt.Sprint(it.ValueUint64())
	}
	it.Close()
	return err, fell, state
}

func TestPositionFallback(t *testing.T) {
	for _, c := range positionCases() {
		t.Run(c.name, func(t *testing.T) {
			err, fell, got := runPositionCase(t, c, false)
			if err != c.err {
				t.Fatalf("commit = %v, want %v", err, c.err)
			}
			if fell != c.fell {
				t.Fatalf("%d fallbacks, want %d", fell, c.fell)
			}
			descErr, descFell, want := runPositionCase(t, c, true)
			if err != descErr {
				t.Fatalf("commit = %v, but %v when every read descends", err, descErr)
			}
			if descFell != 0 {
				t.Fatalf("reads without a position counted %d fallbacks", descFell)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("state %v, but %v when every read descends", got, want)
			}
		})
	}
}

// TestPositionFallbackAcrossCutover installs a new topology between
// Txn.Get and Commit: positions name leaves of the stores the reads ran
// on, so the commit drops every one of them and descends.
func TestPositionFallbackAcrossCutover(t *testing.T) {
	f := newSingle(t)
	for k := uint64(0); k < 4; k++ {
		f.store.Put(key(k), 100+k)
	}
	tx := f.m.Begin(0)
	for k := uint64(0); k < 4; k++ {
		v, _ := tx.Get(key(k))
		tx.Put(key(k), v+1)
	}
	next := storeConfig(f.store)
	next.TopoVersion = 2
	if err := f.m.Cutover(next, func() (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	before := f.m.fallbacks.Load()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit = %v", err)
	}
	if fell := f.m.fallbacks.Load() - before; fell != 4 {
		t.Fatalf("%d fallbacks across a cutover, want 4", fell)
	}
	for k := uint64(0); k < 4; k++ {
		if v, _ := f.store.Get(key(k)); v != 101+k {
			t.Fatalf("key %d = %d, want %d", k, v, 101+k)
		}
	}
}

// TestPositionFallbackApplyRacingSplit splits the read keys' leaf after
// validation passed at their positions and before the apply (at the
// commit-start hook point): the apply must fall back for every key, and a
// crash at every later applied-i must recover the committed post-state.
func TestPositionFallbackApplyRacingSplit(t *testing.T) {
	reads := []uint64{1, 12}
	policies := []nvm.Policy{nvm.PersistNone, nvm.PersistAll, nvm.RandomPolicy(0.5, 41)}
	for pi, pol := range policies {
		for point := 0; ; point++ {
			f := newSingle(t)
			for k := uint64(0); k < core.LeafWidth; k++ {
				f.store.Put(key(k), 100+k)
			}
			f.m.Advance()

			crashAt := fmt.Sprintf("applied-%d", point)
			f.m.SetHook(func(p string) {
				switch p {
				case "commit-start":
					// The leaf is full: one more key splits it. The commit
					// holds the store's epoch guard.
					f.store.Handle(1).PutBytesLocked(key(core.LeafWidth), core.EncodeValue(1))
				case crashAt:
					panic(InjectedCrash{Point: p})
				}
			})
			tx := f.m.Begin(0)
			for _, k := range reads {
				v, _ := tx.Get(key(k))
				tx.Put(key(k), v+1)
			}
			before := f.m.fallbacks.Load()
			err := tx.Commit()
			f.m.SetHook(nil)
			if fell, want := f.m.fallbacks.Load()-before, int64(min(point+1, len(reads))); fell != want {
				t.Fatalf("policy %d, crash at %s: %d fallbacks, want %d", pi, crashAt, fell, want)
			}
			if err == nil {
				break // the apply has fewer than point+1 writes
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("policy %d, crash at %s: commit = %v", pi, crashAt, err)
			}
			if replayed := f.crash(pol); replayed != 1 {
				t.Fatalf("policy %d, crash at %s: replayed %d intents, want 1", pi, crashAt, replayed)
			}
			for k := uint64(0); k < core.LeafWidth; k++ {
				want := 100 + k
				if k == reads[0] || k == reads[1] {
					want++
				}
				if v, ok := f.store.Get(key(k)); !ok || v != want {
					t.Fatalf("policy %d, crash at %s: key %d = %d,%v after recovery, want %d", pi, crashAt, k, v, ok, want)
				}
			}
			if _, ok := f.store.Get(key(core.LeafWidth)); ok {
				t.Fatalf("policy %d, crash at %s: the uncheckpointed splitting insert survived", pi, crashAt)
			}
		}
	}
}

// TestPositionFallbacksRareOnTransfers is the kill criterion of read
// positions: on a two-worker, four-shard transfer mix, fallbacks must stay
// under 10 % of the positions commits use. Transfers insert only their
// worker's ordinal key, once, so nearly every position holds.
func TestPositionFallbacksRareOnTransfers(t *testing.T) {
	const (
		workers   = 2
		accounts  = 2000
		transfers = 1000
	)
	cluster, _ := shard.Open(shard.Config{Shards: 4, Workers: workers, ArenaWords: 1 << 20})
	for k := uint64(0); k < accounts; k++ {
		cluster.Handle(0).Put(key(k), bankInitBal)
	}
	cluster.Advance()
	m := managerFor(cluster)
	m.StartTicker(2 * time.Millisecond)
	defer m.StopTicker()

	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			var acct [4][]byte
			for i := 0; i < transfers; i++ {
				// Four distinct accounts: a random one and three strides on.
				a, stride := r.Intn(accounts), 1+r.Intn(accounts/4-1)
				for j := range acct {
					acct[j] = key(uint64((a + j*stride) % accounts))
				}
				for {
					tx := m.Begin(w)
					var bal [4]uint64
					for j := range acct {
						bal[j], _ = tx.Get(acct[j])
					}
					tx.Put(acct[0], bal[0]-1)
					tx.Put(acct[1], bal[1]-1)
					tx.Put(acct[2], bal[2]+1)
					tx.Put(acct[3], bal[3]+1)
					tx.Put(key(accounts+uint64(w)), uint64(i))
					err := tx.Commit()
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("worker %d: commit: %v", w, err)
						return
					}
				}
				committed.Add(1)
			}
		}(w)
	}
	wg.Wait()

	// A committed transfer uses each of its four positions twice, in
	// validation and in apply; conflicted attempts only add to that.
	positioned := committed.Load() * 8
	fell := m.fallbacks.Load()
	t.Logf("%d fallbacks over at least %d positioned keys", fell, positioned)
	if fell*10 > positioned {
		t.Fatalf("%d fallbacks over %d positioned keys: more than 10 %%", fell, positioned)
	}
}
