package txn

import (
	"bytes"
	"testing"

	"incll/internal/testutil"
)

// TestTxnOutgrowsInlineStorage drives one transaction well past the
// inlineKeys / inlineBytes a Txn holds in its own arrays: reads and writes
// spill to the heap and to the map indexes mid-transaction, and every
// lookup — cached read, read-your-write, overwrite, delete — must behave
// as it does below the threshold.
func TestTxnOutgrowsInlineStorage(t *testing.T) {
	const n = 5 * inlineKeys
	f := newSingle(t)
	for i := uint64(0); i < n; i++ {
		f.store.PutBytes(key(i), testutil.Pattern(i, 40))
	}
	tx := f.m.Begin(0)
	for i := uint64(0); i < n; i++ {
		if v, ok := tx.GetBytes(key(i)); !ok || !bytes.Equal(v, testutil.Pattern(i, 40)) {
			t.Fatalf("read %d = %x,%v", i, v, ok)
		}
		tx.PutBytes(key(i), testutil.Pattern(100+i, 24))
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tx.GetBytes(key(i)); !ok || !bytes.Equal(v, testutil.Pattern(100+i, 24)) {
			t.Fatalf("read-your-write %d = %x,%v", i, v, ok)
		}
	}
	tx.Put(key(3), 33)                 // overwrite an inline-era entry
	tx.Delete(key(n - 1))              // and a spilled one
	tx.PutBytes(key(n+7), []byte("x")) // a key never read
	if len(tx.reads) != n || len(tx.writes) != n+1 {
		t.Fatalf("sets hold %d reads, %d writes; want %d, %d", len(tx.reads), len(tx.writes), n, n+1)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i := uint64(0); i < n-1; i++ {
		want := testutil.Pattern(100+i, 24)
		if i == 3 {
			want = []byte{33}
		}
		if v, ok := f.store.Handle(0).GetBytes(key(i)); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d = %x,%v, want %x", i, v, ok, want)
		}
	}
	if _, ok := f.store.Handle(0).GetBytes(key(n - 1)); ok {
		t.Fatal("deleted key survived")
	}
	if v, _ := f.store.Handle(0).GetBytes(key(n + 7)); string(v) != "x" {
		t.Fatalf("unread key = %q", v)
	}

	// A stale read among many still fails validation.
	tx = f.m.Begin(0)
	for i := uint64(0); i < n-1; i++ {
		tx.Get(key(i))
	}
	f.store.Put(key(n-2), 1)
	tx.Put(key(0), 1)
	if err := tx.Commit(); err != ErrConflict {
		t.Fatalf("commit over a stale read = %v, want ErrConflict", err)
	}
}
