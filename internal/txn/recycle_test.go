package txn

// A finished Txn waits in its worker's slot and is the storage of that
// worker's next transaction. These tests check that nothing of the
// finished transaction survives into the next one, that a recycled Txn
// routes by the topology its commit runs under, and that a cursor opened
// by a transaction outlives the reuse of its Txn.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"incll/internal/core"
	"incll/internal/nvm"
	"incll/internal/testutil"
)

// freshStateErr reports how tx differs from a newly allocated Txn that
// Begin(worker) returned.
func freshStateErr(tx *Txn, worker int) error {
	switch {
	case tx.worker != worker:
		return fmt.Errorf("worker %d, want %d", tx.worker, worker)
	case len(tx.reads) != 0 || cap(tx.reads) != inlineKeys:
		return fmt.Errorf("reads len %d cap %d, want the empty inline array", len(tx.reads), cap(tx.reads))
	case len(tx.writes) != 0 || cap(tx.writes) != inlineKeys:
		return fmt.Errorf("writes len %d cap %d, want the empty inline array", len(tx.writes), cap(tx.writes))
	case len(tx.data) != 0 || cap(tx.data) != inlineBytes:
		return fmt.Errorf("data len %d cap %d, want the empty inline array", len(tx.data), cap(tx.data))
	case tx.rindex != nil || tx.windex != nil:
		return fmt.Errorf("index maps left over (reads %v, writes %v)", tx.rindex != nil, tx.windex != nil)
	case tx.topo != 0:
		return fmt.Errorf("topology version %d left over", tx.topo)
	case tx.done:
		return errors.New("still marked done")
	case tx.err != nil:
		return fmt.Errorf("error %v left over", tx.err)
	case tx.cw.st != nil:
		return errors.New("commit window still holds a topology")
	}
	return nil
}

// TestRecycleLeavesNoTrace runs one kind of finished transaction on worker
// 0, then checks that the worker's next Begin returns the same Txn in the
// fresh state and that a small read-modify-write on it commits exactly its
// own effects.
func TestRecycleLeavesNoTrace(t *testing.T) {
	const n = 3 * inlineKeys // past the inline arrays: heap sets and index maps
	cases := []struct {
		name string
		run  func(t *testing.T, f *singleFixture) error
		want error
	}{
		{"spilled", func(t *testing.T, f *singleFixture) error {
			tx := f.m.Begin(0)
			for i := uint64(0); i < n; i++ {
				v, _ := tx.Get(key(i))
				tx.PutBytes(key(i), testutil.Pattern(v+i, 40))
			}
			return tx.Commit()
		}, nil},
		{"poisoned", func(t *testing.T, f *singleFixture) error {
			tx := f.m.Begin(0)
			tx.Get(key(1))
			tx.Put(key(2), 7)
			tx.PutBytes(key(3), make([]byte, core.MaxValueBytes+1))
			return tx.Commit()
		}, core.ErrValueTooLarge},
		{"conflicted", func(t *testing.T, f *singleFixture) error {
			tx := f.m.Begin(0)
			for i := uint64(0); i < n; i++ {
				tx.Get(key(i))
			}
			f.store.Handle(1).Put(key(n-1), 999)
			tx.Put(key(0), 1)
			return tx.Commit()
		}, ErrConflict},
		{"aborted", func(t *testing.T, f *singleFixture) error {
			tx := f.m.Begin(0)
			for i := uint64(0); i < n; i++ {
				tx.Put(key(100+i), i)
			}
			tx.Abort()
			return nil
		}, nil},
		{"read-only", func(t *testing.T, f *singleFixture) error {
			tx := f.m.Begin(0)
			tx.Get(key(1))
			tx.Get(key(200)) // absent
			return tx.Commit()
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newSingle(t)
			for i := uint64(0); i < n; i++ {
				f.store.Put(key(i), i)
			}
			if err := c.run(t, f); !errors.Is(err, c.want) {
				t.Fatalf("finished transaction = %v, want %v", err, c.want)
			}
			prev := f.m.slots[0].Take()
			if prev == nil {
				t.Fatal("the finished transaction did not go back to its slot")
			}
			if !prev.done {
				t.Fatal("a Txn waiting in its slot is not marked done")
			}
			f.m.slots[0].Put(prev)

			before := map[uint64]uint64{}
			for i := uint64(0); i < n; i++ {
				before[i], _ = f.store.Get(key(i))
			}
			tx := f.m.Begin(0)
			if tx != prev {
				t.Fatal("Begin allocated although its worker's slot held a Txn")
			}
			if err := freshStateErr(tx, 0); err != nil {
				t.Fatalf("recycled Txn: %v", err)
			}
			// Read-modify-write of keys 1 and 4, a write of a never-read
			// key, and a read of an absent one.
			a, _ := tx.Get(key(1))
			b, _ := tx.Get(key(4))
			if _, ok := tx.Get(key(300)); ok {
				t.Fatal("absent key read as present")
			}
			tx.Put(key(1), a+10)
			tx.Put(key(4), b+10)
			tx.Put(key(301), 5)
			if a != before[1] || b != before[4] {
				t.Fatalf("reads %d, %d; the store holds %d, %d", a, b, before[1], before[4])
			}
			if len(tx.reads) != 3 || len(tx.writes) != 3 || tx.rindex != nil || tx.windex != nil {
				t.Fatalf("next transaction holds %d reads, %d writes", len(tx.reads), len(tx.writes))
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("next transaction's commit: %v", err)
			}
			for i := uint64(0); i < n; i++ {
				want := before[i]
				if i == 1 || i == 4 {
					want += 10
				}
				if v, _ := f.store.Get(key(i)); v != want {
					t.Fatalf("key %d = %d, want %d", i, v, want)
				}
			}
			if v, _ := f.store.Get(key(301)); v != 5 {
				t.Fatalf("unread key = %d, want 5", v)
			}
			for i := uint64(0); i < n; i++ {
				if _, ok := f.store.Get(key(100 + i)); ok {
					t.Fatalf("aborted write %d was applied", i)
				}
			}
		})
	}
}

// TestRecycleUseAfterCommitPanics: a Txn waiting in its slot is still
// finished, so a stale reference panics until the worker's next Begin.
func TestRecycleUseAfterCommitPanics(t *testing.T) {
	f := newSingle(t)
	tx := f.m.Begin(0)
	tx.Put(key(1), 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for name, use := range map[string]func(){
		"Get":    func() { tx.Get(key(1)) },
		"Put":    func() { tx.Put(key(1), 2) },
		"Commit": func() { tx.Commit() },
		"Abort":  tx.Abort,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Commit did not panic", name)
				}
			}()
			use()
		}()
	}
	if v, _ := f.store.Get(key(1)); v != 1 {
		t.Fatalf("key 1 = %d after stale uses, want 1", v)
	}
}

// twoStoreTopo is a topology over two stores that routes every key to one
// of them: a reshard in miniature, with the version numbering cutovers.
func twoStoreTopo(stores []*core.Store, version uint64, to int) Config {
	return Config{Stores: stores, TopoVersion: version, Route: func([]byte) int { return to }}
}

// TestRecycleRoutesAgainAfterCutover: a commit under another topology than
// the one its keys were read under — a cutover between the reads and the
// commit, or between two transactions of one recycled Txn — routes every
// key by the commit's topology and drops the old read positions. Each
// cutover copies the keys to the store the
// new topology routes them to, as a reshard does, so the reads validate
// either way, and the writes show which store the commit used.
func TestRecycleRoutesAgainAfterCutover(t *testing.T) {
	stores := make([]*core.Store, 2)
	for i := range stores {
		stores[i], _ = core.Open(nvm.New(nvm.Config{Words: 1 << 21}), core.Config{
			Workers: 2, LogSegWords: 1 << 14, TxnSegWords: 1 << 12, HeapWords: 1 << 20,
		})
	}
	m, _ := New(twoStoreTopo(stores, 1, 0))
	version := uint64(1)
	cutover := func(to int) {
		from := 1 - to
		for k := uint64(0); k < 8; k++ {
			if v, ok := stores[from].Get(key(k)); ok {
				stores[to].Put(key(k), v)
			}
		}
		version++
		if err := m.Cutover(twoStoreTopo(stores, version, to), func() (bool, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 8; k++ {
		stores[0].Put(key(k), 100)
	}
	expect := func(label string, to int, k uint64, want uint64) {
		t.Helper()
		if v, _ := stores[to].Get(key(k)); v != want {
			t.Fatalf("%s: key %d on store %d = %d, want %d", label, k, to, v, want)
		}
	}

	// Routed (read and written) under version 1, committed under 2.
	tx := m.Begin(0)
	v, _ := tx.Get(key(0))
	tx.Put(key(0), v+1)
	tx.Put(key(1), 7) // written, never read
	cutover(1)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit across a cutover: %v", err)
	}
	expect("across a cutover", 1, 0, 101)
	expect("across a cutover", 1, 1, 7)
	expect("across a cutover", 0, 0, 100) // the retired store is untouched

	// A whole transaction under version 2, then the recycled Txn's next one
	// under version 3.
	tx = m.Begin(0)
	v, _ = tx.Get(key(2))
	tx.Put(key(2), v+1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	expect("under version 2", 1, 2, 101)
	cutover(0)
	next := m.Begin(0)
	if next != tx {
		t.Fatal("Begin did not reuse the worker's Txn")
	}
	if err := freshStateErr(next, 0); err != nil {
		t.Fatalf("recycled Txn: %v", err)
	}
	v, _ = next.Get(key(2))
	next.Put(key(2), v+1)
	next.Put(key(3), 9)
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	expect("recycled under version 3", 0, 2, 102)
	expect("recycled under version 3", 0, 3, 9)
	expect("recycled under version 3", 1, 3, 100)

	// A read routed under version 3 and changed on the store version 4
	// routes it to: validation must read there and fail.
	tx = m.Begin(0)
	tx.Get(key(5))
	tx.Put(key(6), 1)
	cutover(1)
	stores[1].Put(key(5), 555)
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit over a read changed after a cutover = %v, want ErrConflict", err)
	}
}

// TestRecycleCursorOutlivesTxn: a transaction's overlay cursor, still open
// across its Commit and the worker's next transaction (which rewrites the
// same Txn's byte storage with other keys and values of the same sizes),
// yields exactly the first transaction's view.
func TestRecycleCursorOutlivesTxn(t *testing.T) {
	f := newSingle(t)
	for k := uint64(10); k < 20; k++ {
		f.store.PutBytes(key(k), []byte(fmt.Sprintf("stored-%02d", k)))
	}
	tx := f.m.Begin(0)
	tx.PutBytes(key(3), []byte("first-03"))
	tx.PutBytes(key(12), []byte("first-12"))
	tx.Delete(key(15))
	tx.PutBytes(key(25), []byte("first-25"))
	it := tx.NewIter(core.IterOptions{})
	defer it.Close()
	wantKeys, wantVals := drainTxn(it, true)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	next := f.m.Begin(0)
	if next != tx {
		t.Fatal("Begin did not reuse the worker's Txn")
	}
	next.PutBytes(key(4), []byte("later-04"))
	next.PutBytes(key(13), []byte("later-13"))
	next.Delete(key(16))
	next.PutBytes(key(26), []byte("later-26"))

	for _, fwd := range []bool{true, false} {
		keys, vals := drainTxn(it, fwd)
		if !fwd {
			for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
				keys[i], keys[j] = keys[j], keys[i]
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
		if fmt.Sprint(keys) != fmt.Sprint(wantKeys) || fmt.Sprint(vals) != fmt.Sprint(wantVals) {
			t.Fatalf("forward=%v: cursor yields\n  %q = %q\nwant\n  %q = %q", fwd, keys, vals, wantKeys, wantVals)
		}
	}
	for i, k := range wantKeys {
		if bytes.HasPrefix([]byte(wantVals[i]), []byte("later")) || k == string(key(4)) {
			t.Fatalf("the first transaction's view holds the next one's write %q", k)
		}
	}
	next.Abort()
}
