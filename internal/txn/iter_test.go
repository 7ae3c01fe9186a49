package txn

// Property tests for the transaction overlay cursor: iteration must show
// the committed state with the transaction's own buffered writes merged
// in — puts visible (including brand-new keys), deletes hiding store
// keys — in both directions, matching a map-based model exactly.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"incll/internal/core"
	"incll/internal/shard"
)

// overlayModel applies a random committed population plus a random
// pending write set, returning the expected merged view.
func overlayModel(t *testing.T, rng *rand.Rand, put func(k, v []byte), tx *Txn) (sorted []string, view map[string]string) {
	t.Helper()
	view = map[string]string{}
	for i := 0; i < 800; i++ {
		k := core.EncodeUint64(uint64(rng.Intn(500)))
		v := make([]byte, 1+rng.Intn(24))
		rng.Read(v)
		put(k, v)
		view[string(k)] = string(v)
	}
	// Pending writes: overwrites, fresh inserts (beyond the committed key
	// range), and deletes.
	for i := 0; i < 200; i++ {
		switch rng.Intn(3) {
		case 0: // overwrite or insert inside the range
			k := core.EncodeUint64(uint64(rng.Intn(500)))
			v := make([]byte, 1+rng.Intn(24))
			rng.Read(v)
			tx.PutBytes(k, v)
			view[string(k)] = string(v)
		case 1: // fresh key the store has never held
			k := core.EncodeUint64(uint64(1000 + rng.Intn(500)))
			v := []byte("fresh")
			tx.PutBytes(k, v)
			view[string(k)] = string(v)
		default: // delete (sometimes of an absent key)
			k := core.EncodeUint64(uint64(rng.Intn(600)))
			tx.Delete(k)
			delete(view, string(k))
		}
	}
	sorted = make([]string, 0, len(view))
	for k := range view {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	return
}

func drainTxn(it core.Cursor, fwd bool) (keys, vals []string) {
	ok := it.First()
	if !fwd {
		ok = it.Last()
	}
	for ok {
		keys = append(keys, string(it.Key()))
		vals = append(vals, string(it.Value()))
		if fwd {
			ok = it.Next()
		} else {
			ok = it.Prev()
		}
	}
	return
}

func checkOverlay(t *testing.T, tx *Txn, sorted []string, view map[string]string, label string) {
	t.Helper()
	// Bounds that cut through pending puts, pending deletes and fresh keys:
	// each is the key of one buffered write.
	var put, del, fresh []byte
	probes := make([][]byte, 0, len(tx.writes))
	for _, op := range tx.writes {
		probes = append(probes, op.Key)
		switch {
		case op.Delete:
			del = op.Key
		case core.DecodeValue(op.Key) >= 1000:
			fresh = op.Key
		default:
			put = op.Key
		}
	}
	rng := rand.New(rand.NewSource(int64(len(sorted))))
	for _, o := range []core.IterOptions{{}, {LowerBound: del, UpperBound: fresh}, {LowerBound: put}, {UpperBound: del}} {
		label := fmt.Sprintf("%s [%x, %x)", label, o.LowerBound, o.UpperBound)
		var keys []string
		for _, k := range sorted {
			if (o.LowerBound == nil || k >= string(o.LowerBound)) && (o.UpperBound == nil || k < string(o.UpperBound)) {
				keys = append(keys, k)
			}
		}
		for _, fwd := range []bool{true, false} {
			it := tx.NewIter(o)
			got, vals := drainTxn(it, fwd)
			it.Close()
			if len(got) != len(keys) {
				t.Fatalf("%s fwd=%v: %d entries, model %d", label, fwd, len(got), len(keys))
			}
			for i := range got {
				j := i
				if !fwd {
					j = len(keys) - 1 - i
				}
				if got[i] != keys[j] || vals[i] != view[keys[j]] {
					t.Fatalf("%s fwd=%v: entry %d = (%x, %x), model (%x, %x)",
						label, fwd, i, got[i], vals[i], keys[j], view[keys[j]])
				}
			}
		}
		it := tx.NewIter(o)
		walkOverlay(t, it, keys, view, probes, rng, label)
		it.Close()
		it = tx.NewIter(o)
		switchAtSharedKey(t, tx, it, keys, label)
		it.Close()
	}
	// Direction switches around a random interior position.
	if len(sorted) > 2 {
		it := tx.NewIter(core.IterOptions{})
		mid := sorted[len(sorted)/2]
		if !it.SeekGE([]byte(mid)) || string(it.Key()) != mid {
			t.Fatalf("%s: SeekGE(existing) missed", label)
		}
		if !it.Prev() || string(it.Key()) != sorted[len(sorted)/2-1] {
			t.Fatalf("%s: Prev after SeekGE wrong", label)
		}
		if !it.Next() || string(it.Key()) != mid {
			t.Fatalf("%s: Next after Prev wrong", label)
		}
		it.Close()
	}
}

// walkOverlay drives a cursor through a seeded random walk of seeks (at
// the write set's keys, where pending puts, deletes and fresh keys meet the
// store) and steps in both directions, tracking its position in the model.
func walkOverlay(t *testing.T, it core.Cursor, keys []string, view map[string]string, probes [][]byte, rng *rand.Rand, label string) {
	t.Helper()
	p := -1       // model position: -1 before the first key, len(keys) after the last
	fresh := true // a fresh cursor's Prev is Last
	for step := 0; step < 400; step++ {
		k := probes[rng.Intn(len(probes))]
		at := sort.SearchStrings(keys, string(k))
		var ok bool
		switch op := rng.Intn(12); {
		case op < 4:
			ok = it.Next()
			p = min(p+1, len(keys))
		case op < 8:
			ok = it.Prev()
			if p = max(p-1, -1); fresh {
				p = len(keys) - 1
			}
		case op == 8:
			ok, p = it.First(), 0
		case op == 9:
			ok, p = it.Last(), len(keys)-1
		case op == 10:
			ok, p = it.SeekGE(k), at
		default:
			ok, p = it.SeekLT(k), at-1
		}
		fresh = false
		if want := p >= 0 && p < len(keys); ok != want {
			t.Fatalf("%s step %d: positioned %v, model %v", label, step, ok, want)
		}
		if p < 0 {
			p = -1
		} else if p >= len(keys) {
			p = len(keys)
		} else if string(it.Key()) != keys[p] || string(it.Value()) != view[keys[p]] {
			t.Fatalf("%s step %d: at (%x, %x), model (%x, %x)", label, step, it.Key(), it.Value(), keys[p], view[keys[p]])
		}
	}
}

// switchAtSharedKey turns the cursor around, both ways, on a key that the
// write set and the store both hold: the pending put wins the tie, and the
// store's entry under it must step with it in either direction.
func switchAtSharedKey(t *testing.T, tx *Txn, it core.Cursor, keys []string, label string) {
	t.Helper()
	store := tx.m.topo.Load().iter(tx.worker, core.IterOptions{})
	defer store.Close()
	for i, k := range keys {
		if tx.findWrite([]byte(k)) < 0 || !store.SeekGE([]byte(k)) || string(store.Key()) != k {
			continue
		}
		at := func(ok bool, j int, what string) {
			t.Helper()
			if want := j >= 0 && j < len(keys); ok != want || (ok && string(it.Key()) != keys[j]) {
				t.Fatalf("%s: %s around shared key %x: positioned %v at %x, model index %d", label, what, k, ok, it.Key(), j)
			}
		}
		at(it.SeekGE([]byte(k)), i, "SeekGE")
		at(it.Prev(), i-1, "Prev after SeekGE")
		at(it.Next(), i, "Next after Prev")
		at(it.Next(), i+1, "Next")
		at(it.Prev(), i, "Prev after Next")
		at(it.SeekLT(append([]byte(k), 0)), i, "SeekLT past it")
		at(it.Next(), i+1, "Next after SeekLT")
		at(it.Prev(), i, "Prev back")
		at(it.Prev(), i-1, "Prev past it")
		return
	}
	t.Fatalf("%s: no key is both pending and stored", label)
}

// TestTxnIterOverlaysPendingWrites: unsharded overlay vs model.
func TestTxnIterOverlaysPendingWrites(t *testing.T) {
	f := newSingle(t)
	rng := rand.New(rand.NewSource(11))
	tx := f.m.Begin(0)
	sorted, view := overlayModel(t, rng, func(k, v []byte) { f.store.PutBytes(k, v) }, tx)
	checkOverlay(t, tx, sorted, view, "single")
}

// TestTxnIterClusterOverlay: the same property over a sharded cluster —
// the overlay rides the merge cursor.
func TestTxnIterClusterOverlay(t *testing.T) {
	s, _ := shard.Open(shard.Config{Shards: 4, Workers: 1, ArenaWords: 1 << 20, TxnSegWords: 1 << 12})
	m, _ := ForCluster(s)
	rng := rand.New(rand.NewSource(23))
	tx := m.Begin(0)
	sorted, view := overlayModel(t, rng, func(k, v []byte) { s.Handle(0).PutBytes(k, v) }, tx)
	checkOverlay(t, tx, sorted, view, "cluster")
}

// TestTxnIterCommitReflectsIteratedView: committing the write set makes a
// plain store cursor see exactly what the overlay showed.
func TestTxnIterCommitReflectsIteratedView(t *testing.T) {
	f := newSingle(t)
	rng := rand.New(rand.NewSource(31))
	tx := f.m.Begin(0)
	sorted, view := overlayModel(t, rng, func(k, v []byte) { f.store.PutBytes(k, v) }, tx)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	it := f.store.Handle(0).NewIter(core.IterOptions{})
	defer it.Close()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if i >= len(sorted) || string(it.Key()) != sorted[i] || string(it.Value()) != view[sorted[i]] {
			t.Fatalf("post-commit entry %d diverges from the iterated view", i)
		}
		i++
	}
	if i != len(sorted) {
		t.Fatalf("post-commit store has %d keys, overlay showed %d", i, len(sorted))
	}
}
