package txn

// Property tests for the transaction overlay cursor: iteration must show
// the committed state with the transaction's own buffered writes merged
// in — puts visible (including brand-new keys), deletes hiding store
// keys — in both directions, matching a map-based model exactly.

import (
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
	for _, fwd := range []bool{true, false} {
		it := tx.NewIter(core.IterOptions{})
		keys, vals := drainTxn(it, fwd)
		it.Close()
		if len(keys) != len(sorted) {
			t.Fatalf("%s fwd=%v: %d entries, model %d", label, fwd, len(keys), len(sorted))
		}
		for i := range keys {
			j := i
			if !fwd {
				j = len(sorted) - 1 - i
			}
			if keys[i] != sorted[j] || vals[i] != view[sorted[j]] {
				t.Fatalf("%s fwd=%v: entry %d = (%x, %x), model (%x, %x)",
					label, fwd, i, keys[i], vals[i], sorted[j], view[sorted[j]])
			}
		}
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
