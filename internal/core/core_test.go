package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll/internal/epoch"
	"incll/internal/nvm"
)

const testArenaWords = 1 << 22

func testConfig() Config {
	return Config{Workers: 2, LogSegWords: 1 << 16, HeapWords: 1 << 20}
}

func newStore(t testing.TB) (*nvm.Arena, *Store) {
	t.Helper()
	a := nvm.New(nvm.Config{Words: testArenaWords})
	s, st := Open(a, testConfig())
	if st != epoch.FreshStart {
		t.Fatalf("fresh arena opened with status %v", st)
	}
	return a, s
}

func reopen(t testing.TB, a *nvm.Arena, cfg Config) *Store {
	t.Helper()
	a.ResetReservations()
	s, _ := Open(a, cfg)
	return s
}

// verifyModel checks that the store holds exactly the model's contents.
func verifyModel(t *testing.T, s *Store, model map[uint64]uint64, ctx string) {
	t.Helper()
	for k, v := range model {
		got, ok := s.Get(EncodeUint64(k))
		if !ok || got != v {
			t.Fatalf("%s: key %d = %d,%v want %d", ctx, k, got, ok, v)
		}
	}
	// A cursor walk must visit exactly len(model) keys, in order, with
	// matching values.
	var prev uint64
	n := 0
	it := s.Handle(0).NewIter(IterOptions{})
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		ik, v := DecodeValue(it.Key()), it.ValueUint64()
		if want, ok := model[ik]; !ok || want != v {
			t.Fatalf("%s: scan saw key %d = %d (model: %d, present %v)", ctx, ik, v, want, ok)
		}
		if n > 0 && ik <= prev {
			t.Fatalf("%s: scan order violated", ctx)
		}
		prev = ik
		n++
	}
	if n != len(model) {
		t.Fatalf("%s: scan visited %d keys, model has %d", ctx, n, len(model))
	}
}

// countKeys walks s with a cursor and returns the number of keys.
func countKeys(s *Store) int {
	n := 0
	it := s.Handle(0).NewIter(IterOptions{})
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	it.Close()
	return n
}

func TestPutGetDeleteBasic(t *testing.T) {
	_, s := newStore(t)
	if _, ok := s.Get(EncodeUint64(1)); ok {
		t.Fatal("empty store returned a value")
	}
	if !s.Put(EncodeUint64(1), 100) {
		t.Fatal("first put reported update")
	}
	if s.Put(EncodeUint64(1), 200) {
		t.Fatal("overwrite reported insert")
	}
	if v, ok := s.Get(EncodeUint64(1)); !ok || v != 200 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	if !s.Delete(EncodeUint64(1)) {
		t.Fatal("delete failed")
	}
	if _, ok := s.Get(EncodeUint64(1)); ok {
		t.Fatal("deleted key present")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestManyKeysWithSplits(t *testing.T) {
	_, s := newStore(t)
	const n = 20000
	for i := 0; i < n; i++ {
		s.Put(EncodeUint64(uint64(i*7919%n)), uint64(i))
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Get(EncodeUint64(uint64(i))); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestVariableLengthAndLayeredKeys(t *testing.T) {
	_, s := newStore(t)
	keys := []string{
		"", "a", "ab", "abcdefgh", "abcdefghi", "abcdefgh12345678",
		"abcdefgh123456789", "abc\x00", "zzzzzzzzzzzzzzzzzzzzzzzzzzzz",
	}
	for i, k := range keys {
		s.Put([]byte(k), uint64(i+1))
	}
	for i, k := range keys {
		v, ok := s.Get([]byte(k))
		if !ok || v != uint64(i+1) {
			t.Fatalf("key %q = %d,%v want %d", k, v, ok, i+1)
		}
	}
	for _, k := range []string{"abcdefgh1", "zz", "abc"} {
		if _, ok := s.Get([]byte(k)); ok {
			t.Fatalf("phantom key %q", k)
		}
	}
	if !s.Delete([]byte("abcdefghi")) {
		t.Fatal("layered delete failed")
	}
	if _, ok := s.Get([]byte("abcdefghi")); ok {
		t.Fatal("deleted layered key present")
	}
}

func TestScanOrderAndLimit(t *testing.T) {
	_, s := newStore(t)
	perm := rand.New(rand.NewSource(3)).Perm(2000)
	for _, i := range perm {
		s.Put(EncodeUint64(uint64(i)), uint64(i*2))
	}
	// A cursor seeked into the keyspace resumes there, in order.
	var got []uint64
	it := s.Handle(0).NewIter(IterOptions{})
	for ok := it.SeekGE(EncodeUint64(500)); ok && len(got) < 40; ok = it.Next() {
		got = append(got, it.ValueUint64())
	}
	it.Close()
	if len(got) != 40 {
		t.Fatalf("scan visited %d", len(got))
	}
	for i, v := range got {
		if v != uint64((500+i)*2) {
			t.Fatalf("scan[%d] = %d", i, v)
		}
	}
}

func TestCleanShutdownRestartKeepsEverything(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 5000; i++ {
		s.Put(EncodeUint64(i), i*3)
		model[i] = i * 3
	}
	s.Shutdown()
	a.Crash(nvm.PersistNone) // power loss after clean shutdown

	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "clean restart")
	if n := s2.RebuildLen(); n != len(model) {
		t.Fatalf("RebuildLen = %d after restart, want %d", n, len(model))
	}
	if s2.Len() != len(model) {
		t.Fatalf("Len = %d after rebuild, want %d", s2.Len(), len(model))
	}
}

func TestCrashRollsBackToEpochStart(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 3000; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance() // commit

	// Doomed epoch: updates, inserts, deletes.
	for i := uint64(0); i < 1000; i++ {
		s.Put(EncodeUint64(i), 999999)
		s.Put(EncodeUint64(100000+i), 1)
		s.Delete(EncodeUint64(2000 + i))
	}
	a.Crash(nvm.RandomPolicy(0.5, 42))

	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "after crash")
}

func TestCrashManyPoliciesAndSeeds(t *testing.T) {
	policies := []struct {
		name string
		mk   func(seed int64) nvm.Policy
	}{
		{"none", func(int64) nvm.Policy { return nvm.PersistNone }},
		{"all", func(int64) nvm.Policy { return nvm.PersistAll }},
		{"half", func(s int64) nvm.Policy { return nvm.RandomPolicy(0.5, s) }},
		{"tenth", func(s int64) nvm.Policy { return nvm.RandomPolicy(0.1, s) }},
		{"evenodd", func(s int64) nvm.Policy { return nvm.EvenOddPolicy(int(s)) }},
	}
	for _, pol := range policies {
		for seed := int64(0); seed < 6; seed++ {
			a := nvm.New(nvm.Config{Words: testArenaWords})
			s, _ := Open(a, testConfig())
			rng := rand.New(rand.NewSource(seed))
			model := map[uint64]uint64{}
			// A few committed epochs of random churn.
			for ep := 0; ep < 3; ep++ {
				for i := 0; i < 700; i++ {
					k := uint64(rng.Intn(1500))
					switch rng.Intn(5) {
					case 0:
						s.Delete(EncodeUint64(k))
						delete(model, k)
					default:
						v := rng.Uint64() % 1000000
						s.Put(EncodeUint64(k), v)
						model[k] = v
					}
				}
				s.Advance()
			}
			// Doomed epoch.
			for i := 0; i < 700; i++ {
				k := uint64(rng.Intn(1500))
				if rng.Intn(5) == 0 {
					s.Delete(EncodeUint64(k))
				} else {
					s.Put(EncodeUint64(k), rng.Uint64())
				}
			}
			a.Crash(pol.mk(seed))
			s2 := reopen(t, a, testConfig())
			verifyModel(t, s2, model, pol.name)
		}
	}
}

func TestRepeatedCrashesAccumulate(t *testing.T) {
	a := nvm.New(nvm.Config{Words: testArenaWords})
	s, _ := Open(a, testConfig())
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 6; round++ {
		// Committed work.
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(800))
			v := rng.Uint64() % 1000
			s.Put(EncodeUint64(k), v)
			model[k] = v
		}
		s.Advance()
		// Doomed work.
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(800))
			if rng.Intn(4) == 0 {
				s.Delete(EncodeUint64(k))
			} else {
				s.Put(EncodeUint64(k), rng.Uint64())
			}
		}
		a.Crash(nvm.RandomPolicy(0.4, int64(round)))
		s = reopen(t, a, testConfig())
		verifyModel(t, s, model, "round")
	}
}

func TestCrashDuringDoomedSplits(t *testing.T) {
	// Commit a small tree, then insert enough in the doomed epoch to force
	// splits (including interior splits), then crash.
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 100; i++ {
		s.Put(EncodeUint64(i*1000), i)
		model[i*1000] = i
	}
	s.Advance()
	for i := uint64(0); i < 30000; i++ {
		s.Put(EncodeUint64(i*3+1), i)
	}
	for seedPhase, pol := range []nvm.Policy{nvm.PersistAll, nvm.PersistNone, nvm.RandomPolicy(0.5, 5)} {
		_ = seedPhase
		a.Crash(pol)
		s = reopen(t, a, testConfig())
		verifyModel(t, s, model, "doomed splits")
		// Crash again without any new work: state must be stable.
	}
}

func TestCrashAfterDeletesOnly(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 2000; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance()
	for i := uint64(0); i < 2000; i += 2 {
		s.Delete(EncodeUint64(i))
	}
	a.Crash(nvm.RandomPolicy(0.7, 13))
	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "deletes rolled back")
}

func TestCommittedDeletesSurvive(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 2000; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	for i := uint64(0); i < 2000; i += 3 {
		s.Delete(EncodeUint64(i))
		delete(model, i)
	}
	s.Advance()
	a.Crash(nvm.PersistNone)
	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "committed deletes")
}

func TestMixedInsertDeleteSameEpochForcesLog(t *testing.T) {
	// Remove-then-insert into a leaf that was full at epoch start must fall
	// back on the external log — its one free slot is the one the removal
	// vacated, which recovery restores — and still recover correctly.
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 14; i++ { // exactly one leaf
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance()
	before := s.Stats().LoggedNodes.Load()
	s.Delete(EncodeUint64(3))
	s.Put(EncodeUint64(100), 100) // same leaf: insert after remove → log
	if s.Stats().LoggedNodes.Load() == before {
		t.Fatal("remove-then-insert did not use the external log")
	}
	a.Crash(nvm.RandomPolicy(0.5, 21))
	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "mixed insert/delete")
}

func TestConsecutiveInsertsUseInCLLOnly(t *testing.T) {
	// Multiple inserts into one node in one epoch need only InCLLp — no
	// external logging (paper §4.1.1).
	_, s := newStore(t)
	s.Put(EncodeUint64(0), 0)
	s.Advance()
	before := s.Stats().LoggedNodes.Load()
	for i := uint64(1); i < 10; i++ { // fits in the first leaf
		s.Put(EncodeUint64(i), i)
	}
	if got := s.Stats().LoggedNodes.Load(); got != before {
		t.Fatalf("consecutive inserts logged %d nodes, want 0", got-before)
	}
}

func TestConsecutiveDeletesUseInCLLOnly(t *testing.T) {
	_, s := newStore(t)
	for i := uint64(0); i < 10; i++ {
		s.Put(EncodeUint64(i), i)
	}
	s.Advance()
	before := s.Stats().LoggedNodes.Load()
	for i := uint64(0); i < 10; i++ {
		s.Delete(EncodeUint64(i))
	}
	if got := s.Stats().LoggedNodes.Load(); got != before {
		t.Fatalf("consecutive deletes logged %d nodes, want 0", got-before)
	}
}

func TestRepeatedUpdateOfOneKeyUsesInCLLOnly(t *testing.T) {
	// A popular key updated many times per epoch: the ValInCLL already
	// holds its epoch-start value, so no external logging (paper §4.1.3).
	_, s := newStore(t)
	s.Put(EncodeUint64(5), 1)
	s.Advance()
	before := s.Stats().LoggedNodes.Load()
	for i := 0; i < 50; i++ {
		s.Put(EncodeUint64(5), uint64(i))
	}
	if got := s.Stats().LoggedNodes.Load(); got != before {
		t.Fatalf("hot-key updates logged %d nodes, want 0", got-before)
	}
}

func TestTwoHotSlotsSameLineRelocate(t *testing.T) {
	// Updating two different keys that land in the same value cache line
	// within one epoch exhausts that line's single ValInCLL. The second
	// moves to a slot that was free at epoch start under the InCLLp and logs
	// nothing, and so do the third and fourth; once no free-at-start slot is
	// left, the next hot slot takes the external log. A relocated key is
	// updated in place.
	for i, pol := range []nvm.Policy{nvm.PersistNone, nvm.PersistAll, nvm.RandomPolicy(0.5, 33)} {
		a, s := newStore(t)
		model := map[uint64]uint64{}
		for i := uint64(0); i < 11; i++ { // slots 0..10; slots 11..13 free
			s.Put(EncodeUint64(i), i)
			model[i] = i
		}
		s.Advance()
		logged := func() int64 { return s.Stats().LoggedNodes.Load() }
		before := logged()
		want := map[uint64]uint64{}
		put := func(k, v uint64) {
			s.Put(EncodeUint64(k), v)
			want[k] = v
		}
		put(1, 111) // slots 0..6 are all in vals[0..6] (line 3)
		for k := uint64(2); k <= 4; k++ {
			put(k, k*111)
			if got := logged() - before; got != 0 {
				t.Fatalf("hot same-line slot %d logged %d nodes, want 0", k, got)
			}
		}
		put(2, 2000) // relocated: in place
		if got := logged() - before; got != 0 {
			t.Fatalf("updating a relocated key logged %d nodes, want 0", got)
		}
		put(5, 555)
		if got := logged() - before; got != 1 {
			t.Fatalf("the hot slot after three relocations logged %d nodes, want 1", got)
		}
		for k, v := range want {
			if got, ok := s.Get(EncodeUint64(k)); !ok || got != v {
				t.Fatalf("before the crash key %d = %d,%v want %d", k, got, ok, v)
			}
		}
		a.Crash(pol)
		verifyModel(t, reopen(t, a, testConfig()), model, fmt.Sprintf("two hot slots, policy %d", i))
	}
}

func TestUpdatesInBothValueLinesUseBothInCLLs(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 14; i++ {
		s.Put(EncodeUint64(i), i)
		model[i] = i
	}
	s.Advance()
	before := s.Stats().LoggedNodes.Load()
	// Sorted positions equal slot order here: key 0 is in vals line 0 and
	// key 13 in vals line 1.
	s.Put(EncodeUint64(0), 1000)
	s.Put(EncodeUint64(13), 2000)
	if got := s.Stats().LoggedNodes.Load(); got != before {
		t.Fatalf("updates in distinct lines logged %d nodes", got-before)
	}
	a.Crash(nvm.RandomPolicy(0.5, 44))
	s2 := reopen(t, a, testConfig())
	verifyModel(t, s2, model, "both lines rolled back")
}

func TestLoggingModeEquivalence(t *testing.T) {
	// DisableInCLL (the paper's LOGGING ablation) must be functionally
	// identical, only costlier.
	cfg := testConfig()
	cfg.DisableInCLL = true
	a := nvm.New(nvm.Config{Words: testArenaWords})
	s, _ := Open(a, cfg)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(1000))
		v := rng.Uint64()
		s.Put(EncodeUint64(k), v)
		model[k] = v
	}
	s.Advance()
	for i := 0; i < 1000; i++ {
		s.Put(EncodeUint64(uint64(rng.Intn(1000))), rng.Uint64())
	}
	if s.Stats().LoggedNodes.Load() == 0 {
		t.Fatal("LOGGING mode never logged")
	}
	a.Crash(nvm.RandomPolicy(0.5, 55))
	a.ResetReservations()
	s2, _ := Open(a, cfg)
	verifyModel(t, s2, model, "LOGGING mode")
}

func TestValueBuffersNeedNoExplicitFlush(t *testing.T) {
	// The paper's durable-allocation claim: writing a value buffer and
	// inserting it requires no write-back or fence at all when the node
	// takes the InCLL path.
	_, s := newStore(t)
	for i := uint64(0); i < 5; i++ {
		s.Put(EncodeUint64(i), i)
	}
	s.Advance()
	st0 := s.Arena().Stats().Snapshot()
	for i := uint64(5); i < 10; i++ {
		s.Put(EncodeUint64(i), i) // same leaf, InCLLp only
	}
	d := s.Arena().Stats().Snapshot().Sub(st0)
	if d.Fences != 0 || d.Writebacks != 0 {
		t.Fatalf("InCLL-path puts issued persistence ops: %v", d)
	}
}

func TestLazyRecoveryOnlyTouchesAccessedNodes(t *testing.T) {
	a, s := newStore(t)
	for i := uint64(0); i < 10000; i++ {
		s.Put(EncodeUint64(i), i)
	}
	s.Advance()
	s.Put(EncodeUint64(1), 999) // doomed
	a.Crash(nvm.PersistAll)
	a.ResetReservations()
	s2, st := Open(a, testConfig())
	if st != epoch.CrashRecovered {
		t.Fatalf("status %v", st)
	}
	// A point lookup recovers only the handful of nodes on its path.
	if v, ok := s2.Get(EncodeUint64(1)); !ok || v != 1 {
		t.Fatalf("rollback failed: %d,%v", v, ok)
	}
	rec0 := s2.Stats().LazyRecoveries.Load()
	if rec0 == 0 || rec0 > 10 {
		t.Fatalf("one lookup recovered %d nodes, want a handful", rec0)
	}
	// Repeating the lookup must not recover anything again.
	s2.Get(EncodeUint64(1))
	if got := s2.Stats().LazyRecoveries.Load(); got != rec0 {
		t.Fatalf("already-recovered nodes recovered again (%d -> %d)", rec0, got)
	}
}

func TestConcurrentWorkersWithTicker(t *testing.T) {
	_, s := newStore(t)
	done := make(chan bool, 2)
	var tk epoch.Ticker
	tk.Start(2*time.Millisecond, func() { s.Advance() }) // 2ms epochs while the workers run
	for w := 0; w < 2; w++ {
		go func(w int) {
			h := s.Handle(w)
			for i := 0; i < 20000; i++ {
				k := uint64(w*1000000 + i)
				h.Put(EncodeUint64(k), k)
			}
			done <- true
		}(w)
	}
	<-done
	<-done
	tk.Stop()
	for w := 0; w < 2; w++ {
		for i := 0; i < 20000; i += 97 {
			k := uint64(w*1000000 + i)
			if v, ok := s.Get(EncodeUint64(k)); !ok || v != k {
				t.Fatalf("key %d = %d,%v", k, v, ok)
			}
		}
	}
}

// Relocation moves a live entry to another slot under optimistic readers:
// two writers keep updating keys of one value line (one with inline values,
// one with heap values) while a third deletes and re-inserts two keys
// beyond them in the same leaf, so its inserts skip the slots it vacated
// and land on later free slots. Readers run Get and forward and reverse
// cursors over the same leaf, across 1 ms epochs, until forty epochs have
// passed and the writers have seen their keys move slot forty times. Every
// read must see all ten stable keys in order, each with a value its writer
// wrote, never older than one the same reader saw before; the final state
// must equal the model.
//
// Boundaries are paced by work as well as by the ticker: every
// roundsPerEpoch rounds a writer waits for the next boundary. A round
// frees at most four 4-word blocks (and 2/7 of an offset page), and a block
// is reused only after the boundary that follows its free, so however far
// the ticker falls behind, three writers carve at most a fifth of the
// 2^20-word heap between two boundaries.
func TestRelocationConcurrentReaders(t *testing.T) {
	const keys, churnKeys, minEpochs, minMoves, roundsPerEpoch = 10, 2, 40, 40, 1024
	a := nvm.New(nvm.Config{Words: testArenaWords})
	cfg := testConfig()
	cfg.Workers = 5
	s, _ := Open(a, cfg)
	// v = round<<8 | k; odd keys' values are 16 bytes long, so they live on
	// the value heap and every update frees a block.
	encode := func(k, round uint64) []byte {
		b := binary.BigEndian.AppendUint64(nil, round<<8|k)
		if k%2 == 1 {
			b = append(b, "heap-val"...)
		}
		return b
	}
	for k := uint64(0); k < keys+churnKeys; k++ {
		s.PutBytes(EncodeUint64(k), encode(k, 0))
	}
	h0 := s.Handle(0)
	leaf := h0.ref(h0.rootCell0().root())
	epoch0 := s.Epochs().Current()
	var tk epoch.Ticker
	tk.Start(time.Millisecond, func() { s.Advance() })
	defer tk.Stop()

	var writers sync.WaitGroup
	var done, stop atomic.Bool
	var moves atomic.Int64 // slot changes of the relocating writers' keys
	var final [3]uint64    // each writer's last round
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := s.Handle(w)
			var slots [keys]int
			for k := range slots {
				slots[k] = k
			}
			r := uint64(0)
			for !stop.Load() {
				r++
				if r%roundsPerEpoch == 0 {
					for e := s.Epochs().Current(); s.Epochs().Current() == e && !stop.Load() && time.Now().Before(deadline); {
						runtime.Gosched()
					}
				}
				if w == 2 {
					for k := uint64(keys); k < keys+churnKeys; k++ {
						h.Delete(EncodeUint64(k))
						h.PutBytes(EncodeUint64(k), encode(k, r))
					}
					continue
				}
				for k := uint64(w); k < 7; k += 2 { // slots 0..6: value line 3
					h.PutBytes(EncodeUint64(k), encode(k, r))
					// Key k sits at position k; only its writer moves it.
					if sl := leaf.perm().slot(int(k)); sl != slots[k] {
						slots[k] = sl
						moves.Add(1)
					}
				}
				if w == 0 && (moves.Load() >= minMoves && s.Epochs().Current()-epoch0 >= minEpochs || time.Now().After(deadline)) {
					stop.Store(true)
				}
			}
			final[w] = r
		}(w)
	}
	errs := make(chan error, 2)
	for r := 3; r < 5; r++ {
		go func(r int) {
			h := s.Handle(r)
			last := make([]uint64, keys)
			see := func(k, v uint64) error {
				if v&0xFF != k {
					return fmt.Errorf("reader %d: key %d read %#x", r, k, v)
				}
				if k >= keys {
					return nil // churned: present or not, any round
				}
				if v>>8 < last[k] {
					return fmt.Errorf("reader %d: key %d read %#x after round %d", r, k, v, last[k])
				}
				last[k] = v >> 8
				return nil
			}
			var err error
			for err == nil && !done.Load() {
				for k := uint64(0); k < keys && err == nil; k++ {
					v, ok := h.Get(EncodeUint64(k))
					if !ok {
						err = fmt.Errorf("reader %d: key %d missing", r, k)
					} else {
						err = see(k, v)
					}
				}
				it := h.NewIter(IterOptions{})
				first, step, reverse := it.First, it.Next, r == 4
				if reverse {
					first, step = it.Last, it.Prev
				}
				n, prev := 0, uint64(0)
				for ok := first(); ok && err == nil; ok = step() {
					k := binary.BigEndian.Uint64(it.Key())
					if n > 0 && (k > prev) == reverse {
						err = fmt.Errorf("reader %d: cursor key %d after %d", r, k, prev)
					} else {
						err = see(k, it.ValueUint64())
					}
					if k < keys {
						n++
					}
					prev = k
				}
				it.Close()
				if err == nil && n != keys {
					err = fmt.Errorf("reader %d: cursor saw %d stable keys, want %d", r, n, keys)
				}
			}
			errs <- err
		}(r)
	}
	writers.Wait()
	done.Store(true)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, ep := moves.Load(), s.Epochs().Current()-epoch0; got < minMoves || ep < minEpochs {
		t.Fatalf("%d relocations in %d epochs before the deadline, want %d in %d", got, ep, minMoves, minEpochs)
	}
	for k := uint64(0); k < keys+churnKeys; k++ {
		want := uint64(0)
		switch {
		case k >= keys:
			want = final[2]
		case k < 7:
			want = final[k%2]
		}
		if v, ok := s.Get(EncodeUint64(k)); !ok || v != want<<8|k {
			t.Fatalf("key %d = %#x,%v want %#x", k, v, ok, want<<8|k)
		}
	}
}

func TestLayeredKeysCrashRecovery(t *testing.T) {
	a, s := newStore(t)
	model := map[string]uint64{}
	longKey := func(i uint64) []byte {
		return append([]byte("prefix--"), EncodeUint64(i)...)
	}
	for i := uint64(0); i < 500; i++ {
		s.Put(longKey(i), i)
		model[string(longKey(i))] = i
	}
	s.Advance()
	for i := uint64(0); i < 500; i++ {
		s.Put(longKey(i), 999999) // doomed updates in the layer
		s.Put(longKey(10000+i), 1)
	}
	a.Crash(nvm.RandomPolicy(0.5, 66))
	s2 := reopen(t, a, testConfig())
	for k, v := range model {
		got, ok := s2.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("layered key %q = %d,%v want %d", k, got, ok, v)
		}
	}
	n := countKeys(s2)
	if n != len(model) {
		t.Fatalf("scan found %d keys, want %d", n, len(model))
	}
}

func TestReopenWithDifferentLayoutPanics(t *testing.T) {
	a, s := newStore(t)
	s.Put(EncodeUint64(1), 1)
	s.Shutdown()
	a.ResetReservations()
	defer func() {
		if recover() == nil {
			t.Fatal("reopening with a different worker count must panic")
		}
	}()
	bad := testConfig()
	bad.Workers = 7 // changes the region layout
	Open(a, bad)
}

func TestReopenWithSameLayoutSucceeds(t *testing.T) {
	a, s := newStore(t)
	s.Put(EncodeUint64(1), 42)
	s.Shutdown()
	s2 := reopen(t, a, testConfig())
	if v, ok := s2.Get(EncodeUint64(1)); !ok || v != 42 {
		t.Fatalf("value lost across matching reopen: %d,%v", v, ok)
	}
}
