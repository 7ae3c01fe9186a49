package incll

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"incll/internal/testutil"
)

// TestHandleCursorAllocBudget pins the per-request cursor at the façade:
// Handle.NewIter → Seek → step×k → Close and its reverse form allocate
// nothing in steady state — at one shard, and at four, where the merge
// cursor and its four per-shard cursors are all recycled.
// A transaction's overlay cursor is new per NewIter (it snapshots the
// write set) but closes through to the store cursors under it; its budget
// is the overlay alone, the same at one shard and at four.
func TestHandleCursorAllocBudget(t *testing.T) {
	const overlayBudget = 3 // the overlay struct, its sorted write-set copy and the copy of that set's bytes
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards, Workers: 2})
		const n = 4000
		for i := uint64(0); i < n; i++ {
			if i%3 == 0 {
				db.PutBytes(Key(i), bytes.Repeat([]byte{byte(i)}, 40)) // heap value: lives in the batch arena
			} else {
				db.Put(Key(i), i)
			}
		}
		db.Checkpoint()
		h := db.Handle(1)
		keys := make([][]byte, 0, 64)
		for i := uint64(0); i < n; i += n / 64 {
			keys = append(keys, Key(i))
		}
		sum := 0
		tx := db.BeginWorker(1)
		tx.Put(Key(n+1), 1)
		tx.Delete(Key(7))
		walk := func(it Iterator, start []byte, steps int) {
			for ok := it.SeekGE(start); ok && steps > 0; ok = it.Next() {
				sum += len(it.Key()) + len(it.Value())
				steps--
			}
			it.Close()
		}
		shapes := []struct {
			name   string
			budget float64
			scan   func(start []byte, steps int)
		}{
			{"NewIter forward", 0, func(start []byte, steps int) { walk(h.NewIter(IterOptions{}), start, steps) }},
			{"NewIter reverse", 0, func(start []byte, steps int) {
				it := h.NewIter(IterOptions{})
				for ok := it.SeekLT(start); ok && steps > 0; ok = it.Prev() {
					sum += int(it.ValueUint64() & 1)
					steps--
				}
				it.Close()
			}},
			{"Txn.NewIter", overlayBudget, func(start []byte, steps int) { walk(tx.NewIter(IterOptions{}), start, steps) }},
		}
		for _, sh := range shapes {
			pass := func() {
				for i, k := range keys {
					sh.scan(k, 1+i*2)
				}
			}
			pass() // grow every recycled buffer to the pass's high-water mark
			perScan := testing.AllocsPerRun(10, pass) / float64(len(keys))
			if perScan > sh.budget && !testutil.RaceEnabled {
				t.Errorf("shards=%d %s: %.2f allocations per scan, budget %.0f", shards, sh.name, perScan, sh.budget)
			}
		}
		tx.Abort()
		if sum == 0 {
			t.Fatal("scans visited nothing")
		}
		db.Close()
	}
}

// TestSharedHandleCursorsUnderWriters: DB.NewIter and DB.All run on worker
// 0's handle from any goroutine, so its cursor slot is contended. Eight
// readers open, walk and close cursors as fast as they can while two
// writers insert and delete odd keys and the checkpointer ticks; every walk
// must be strictly ordered, hold value == key throughout, and contain each
// of the stable even keys exactly once. Meant for -race.
func TestSharedHandleCursorsUnderWriters(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := Open(Options{Shards: shards, Workers: 3, EpochInterval: time.Millisecond})
		const n = 3000 // stable keys 0, 2, …, 2n-2
		for i := uint64(0); i < n; i++ {
			db.Put(Key(2*i), 2*i)
		}
		db.Checkpoint()
		db.StartCheckpointer()

		stop := make(chan struct{})
		var writers, readers sync.WaitGroup
		for w := 1; w <= 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				h := db.Handle(w)
				for i := uint64(w); ; i += 2 {
					select {
					case <-stop:
						return
					default:
					}
					k := 2*((i*7919)%n) + 1 // an odd key
					if i%3 == 0 {
						h.Delete(Key(k))
					} else {
						h.Put(Key(k), k)
					}
				}
			}(w)
		}
		check := func(what string, walk func(visit func(k, v []byte))) error {
			prev, evens := int64(-1), 0
			var err error
			walk(func(k, v []byte) {
				key := int64(DecodeValue(k))
				switch {
				case err != nil:
				case key <= prev:
					err = fmt.Errorf("shards=%d %s: key %d after %d", shards, what, key, prev)
				case DecodeValue(v) != uint64(key):
					err = fmt.Errorf("shards=%d %s: key %d holds %d", shards, what, key, DecodeValue(v))
				case key%2 == 0:
					evens++
				}
				prev = key
			})
			if err == nil && evens != n {
				err = fmt.Errorf("shards=%d %s: saw %d of %d stable keys", shards, what, evens, n)
			}
			return err
		}
		for r := 0; r < 8; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for round := 0; round < 6; round++ {
					var err error
					switch (r + round) % 3 {
					case 0:
						err = check("DB.NewIter", func(visit func(k, v []byte)) {
							it := db.NewIter(IterOptions{})
							for ok := it.First(); ok; ok = it.Next() {
								visit(it.Key(), it.Value())
							}
							it.Close()
						})
					case 1:
						err = check("DB.All", func(visit func(k, v []byte)) {
							for k, v := range db.All() {
								visit(k, v)
							}
						})
					default: // a bounded cursor between two unbounded ones on the same slot
						lo, hi := Key(uint64(2*r*100)), Key(uint64(2*r*100+200))
						it := db.NewIter(IterOptions{LowerBound: lo, UpperBound: hi})
						for ok := it.First(); ok; ok = it.Next() {
							if bytes.Compare(it.Key(), lo) < 0 || bytes.Compare(it.Key(), hi) >= 0 {
								err = fmt.Errorf("shards=%d bounded cursor left [%x, %x): %x", shards, lo, hi, it.Key())
							}
						}
						it.Close()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		readers.Wait()
		close(stop)
		writers.Wait()
		db.Close()
	}
}
