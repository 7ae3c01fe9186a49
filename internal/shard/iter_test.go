package shard

// Property tests for the bidirectional merge cursor: a sharded cursor
// must be observationally identical to an unsharded one — same keys, same
// values, same order — in both directions, with bounds, and from
// arbitrary seek pivots.

import (
	"math/rand"
	"sort"
	"testing"

	"incll/internal/core"
)

// iterFixture loads the same mixed-shape population (short, 8-byte, and
// layered keys; inline and heap values) into an unsharded and a sharded
// store.
func iterFixture(t *testing.T, shards int, n int, seed int64) (uni, multi *Store, sorted []string, model map[string]string) {
	t.Helper()
	uni, _ = Open(testConfig(1, 1))
	multi, _ = Open(testConfig(shards, 1))
	rng := rand.New(rand.NewSource(seed))
	model = map[string]string{}
	for i := 0; i < n; i++ {
		var k []byte
		switch rng.Intn(3) {
		case 0:
			k = core.EncodeUint64(uint64(rng.Intn(2000)))
		case 1:
			k = make([]byte, 1+rng.Intn(6))
			rng.Read(k)
		default:
			k = append(core.EncodeUint64(uint64(rng.Intn(4))), make([]byte, 1+rng.Intn(16))...)
			rng.Read(k[8:])
		}
		if rng.Intn(8) == 0 {
			uni.Delete(k)
			multi.Delete(k)
			delete(model, string(k))
			continue
		}
		v := make([]byte, rng.Intn(48))
		rng.Read(v)
		uni.PutBytes(k, v)
		multi.PutBytes(k, v)
		model[string(k)] = string(v)
	}
	sorted = make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	return
}

func drain(it core.Cursor, fwd bool) (keys, vals []string) {
	ok := it.First()
	if !fwd {
		ok = it.Last()
	}
	for ; ok; ok = step(it, fwd) {
		keys = append(keys, string(it.Key()))
		vals = append(vals, string(it.Value()))
	}
	return
}

func step(it core.Cursor, fwd bool) bool {
	if fwd {
		return it.Next()
	}
	return it.Prev()
}

// TestShardedIterMatchesUnsharded drains both stores in both directions
// and demands byte-identical streams that match the model.
func TestShardedIterMatchesUnsharded(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		uni, multi, sorted, model := iterFixture(t, shards, 4000, int64(shards))
		for _, fwd := range []bool{true, false} {
			uit := uni.NewIter(core.IterOptions{})
			mit := multi.NewIter(core.IterOptions{})
			uk, uv := drain(uit, fwd)
			mk, mv := drain(mit, fwd)
			uit.Close()
			mit.Close()
			if len(uk) != len(sorted) || len(mk) != len(sorted) {
				t.Fatalf("shards=%d fwd=%v: unsharded %d, sharded %d, model %d",
					shards, fwd, len(uk), len(mk), len(sorted))
			}
			for i := range uk {
				if uk[i] != mk[i] || uv[i] != mv[i] {
					t.Fatalf("shards=%d fwd=%v: entry %d differs (%x vs %x)", shards, fwd, i, uk[i], mk[i])
				}
				j := i
				if !fwd {
					j = len(sorted) - 1 - i
				}
				if uk[i] != sorted[j] || uv[i] != model[sorted[j]] {
					t.Fatalf("shards=%d fwd=%v: entry %d = %x, model %x", shards, fwd, i, uk[i], sorted[j])
				}
			}
		}
	}
}

// TestShardedIterSeeksAndBounds compares seeks and bounded cursors
// between the sharded and unsharded stores from random pivots.
func TestShardedIterSeeksAndBounds(t *testing.T) {
	uni, multi, sorted, _ := iterFixture(t, 4, 2500, 42)
	rng := rand.New(rand.NewSource(5))
	pivot := func() []byte {
		if rng.Intn(3) == 0 && len(sorted) > 0 {
			return []byte(sorted[rng.Intn(len(sorted))])
		}
		k := make([]byte, 1+rng.Intn(10))
		rng.Read(k)
		return k
	}
	uit := uni.NewIter(core.IterOptions{})
	mit := multi.NewIter(core.IterOptions{})
	for trial := 0; trial < 150; trial++ {
		p := pivot()
		if ok, mok := uit.SeekGE(p), mit.SeekGE(p); ok != mok ||
			(ok && string(uit.Key()) != string(mit.Key())) {
			t.Fatalf("SeekGE(%x): unsharded (%v, %x) vs sharded (%v, %x)", p, ok, uit.Key(), mok, mit.Key())
		}
		// Walk a few steps in a random direction from the pivot.
		for s := 0; s < 10; s++ {
			fwd := rng.Intn(2) == 0
			ok, mok := step(uit, fwd), step(mit, fwd)
			if ok != mok || (ok && string(uit.Key()) != string(mit.Key())) {
				t.Fatalf("trial %d step %d (fwd=%v): diverged", trial, s, fwd)
			}
		}
		if ok, mok := uit.SeekLT(p), mit.SeekLT(p); ok != mok ||
			(ok && string(uit.Key()) != string(mit.Key())) {
			t.Fatalf("SeekLT(%x): diverged", p)
		}
	}
	uit.Close()
	mit.Close()
	for trial := 0; trial < 30; trial++ {
		lo, hi := pivot(), pivot()
		if string(lo) > string(hi) {
			lo, hi = hi, lo
		}
		o := core.IterOptions{LowerBound: lo, UpperBound: hi}
		for _, fwd := range []bool{true, false} {
			u := uni.NewIter(o)
			m := multi.NewIter(o)
			uk, _ := drain(u, fwd)
			mk, _ := drain(m, fwd)
			u.Close()
			m.Close()
			if len(uk) != len(mk) {
				t.Fatalf("bounds [%x, %x) fwd=%v: %d vs %d entries", lo, hi, fwd, len(uk), len(mk))
			}
			for i := range uk {
				if uk[i] != mk[i] {
					t.Fatalf("bounds [%x, %x) fwd=%v: entry %d differs", lo, hi, fwd, i)
				}
			}
		}
	}
}

// TestShardedIterCheckpointInterleaved drives coordinated global
// checkpoints between merge-cursor steps from the same goroutine — the
// sharded form of the guard-batching regression test.
func TestShardedIterCheckpointInterleaved(t *testing.T) {
	s, _ := Open(testConfig(4, 1))
	const n = 5000
	for i := uint64(0); i < n; i++ {
		s.Put(core.EncodeUint64(i), i)
	}
	s.Advance()
	it := s.NewIter(core.IterOptions{})
	defer it.Close()
	count := uint64(0)
	for ok := it.First(); ok; ok = it.Next() {
		if it.ValueUint64() != count {
			t.Fatalf("entry %d holds %d", count, it.ValueUint64())
		}
		count++
		if count%100 == 0 {
			s.Advance() // would self-deadlock if any shard cursor pinned its guard
		}
	}
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
}

// TestShardedIterCloseContract: the merge cursor follows the core cursor's
// lifecycle — closing twice is a no-op, positioning a closed cursor panics
// (its per-shard cursors are closed with it), the worker's next NewIter is
// the same storage starting fresh, and bounds do not carry over.
func TestShardedIterCloseContract(t *testing.T) {
	_, multi, sorted, _ := iterFixture(t, 4, 1500, 11)
	h := multi.Handle(0)
	lo, hi := []byte(sorted[100]), []byte(sorted[200])
	it := h.NewIter(core.IterOptions{LowerBound: lo, UpperBound: hi})
	if keys, _ := drain(it, true); len(keys) != 100 {
		t.Fatalf("bounded walk saw %d keys, want 100", len(keys))
	}
	it.Close()
	it.Close()
	if it.Valid() || it.Key() != nil {
		t.Fatal("closed merge cursor still reads as positioned")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SeekGE on a closed merge cursor did not panic")
			}
		}()
		it.SeekGE(lo)
	}()
	again := h.NewIter(core.IterOptions{})
	if again.(*Iter) != it.(*Iter) {
		t.Fatal("the worker's next merge cursor is not the one it closed last")
	}
	if keys, _ := drain(again, true); len(keys) != len(sorted) {
		t.Fatalf("reissued cursor saw %d keys, want %d", len(keys), len(sorted))
	}
	if keys, _ := drain(again, false); len(keys) != len(sorted) {
		t.Fatalf("reissued cursor saw %d keys descending, want %d", len(keys), len(sorted))
	}
	again.Close()
}
