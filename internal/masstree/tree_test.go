package masstree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"incll/internal/core"
)

// The tests drive a small tree through these single-worker shorthands
// on worker 0's handle, and handles 0..7 where they run concurrently.

func newTestTree() *Tree { return newTree(1 << 21) }

func (t *Tree) Get(k []byte) (uint64, bool) { return t.Handle(0).Get(k) }
func (t *Tree) Put(k []byte, v uint64) bool { return t.Handle(0).Put(k, v) }
func (t *Tree) Delete(k []byte) bool        { return t.Handle(0).Delete(k) }
func (t *Tree) Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int {
	return t.Handle(0).Scan(start, max, fn)
}

// Len counts the live keys with a full scan.
func (t *Tree) Len() int { return t.Scan(nil, -1, func([]byte, uint64) bool { return true }) }

var EncodeUint64 = core.EncodeUint64

func TestPutGetSingle(t *testing.T) {
	tr := newTestTree()
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("empty tree returned a value")
	}
	if !tr.Put([]byte("hello"), 42) {
		t.Fatal("first Put reported update, want insert")
	}
	v, ok := tr.Get([]byte("hello"))
	if !ok || v != 42 {
		t.Fatalf("Get = %d,%v want 42,true", v, ok)
	}
}

func TestPutOverwrite(t *testing.T) {
	tr := newTestTree()
	tr.Put([]byte("k"), 1)
	if tr.Put([]byte("k"), 2) {
		t.Fatal("overwrite reported insert")
	}
	if v, _ := tr.Get([]byte("k")); v != 2 {
		t.Fatalf("value = %d after overwrite", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree()
	tr.Put([]byte("a"), 1)
	tr.Put([]byte("b"), 2)
	if !tr.Delete([]byte("a")) {
		t.Fatal("Delete of present key returned false")
	}
	if tr.Delete([]byte("a")) {
		t.Fatal("second Delete returned true")
	}
	if _, ok := tr.Get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tr.Get([]byte("b")); !ok || v != 2 {
		t.Fatal("unrelated key lost")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestManyKeysForceSplits(t *testing.T) {
	tr := newTestTree()
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Put(EncodeUint64(uint64(i*7919%n)), uint64(i))
	}
	for i := 0; i < n; i++ {
		k := uint64(i * 7919 % n)
		if _, ok := tr.Get(EncodeUint64(k)); !ok {
			t.Fatalf("key %d lost after splits", k)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}

func TestSequentialInsertAscendingDescending(t *testing.T) {
	for _, dir := range []string{"asc", "desc"} {
		tr := newTestTree()
		const n = 5000
		for i := 0; i < n; i++ {
			k := i
			if dir == "desc" {
				k = n - 1 - i
			}
			tr.Put(EncodeUint64(uint64(k)), uint64(k))
		}
		for i := 0; i < n; i++ {
			v, ok := tr.Get(EncodeUint64(uint64(i)))
			if !ok || v != uint64(i) {
				t.Fatalf("%s: key %d = %d,%v", dir, i, v, ok)
			}
		}
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTestTree()
	keys := []string{
		"", "a", "ab", "abc", "abcd", "abcdefg", "abcdefgh", // within one slice
		"abcdefghi", "abcdefghij", "abcdefgh12345678", "abcdefgh123456789", // layers
		"abc\x00", "abc\x00\x00", // explicit zero bytes vs short keys
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", // 4 layers deep
	}
	for i, k := range keys {
		tr.Put([]byte(k), uint64(i+1))
	}
	for i, k := range keys {
		v, ok := tr.Get([]byte(k))
		if !ok || v != uint64(i+1) {
			t.Fatalf("key %q = %d,%v want %d", k, v, ok, i+1)
		}
	}
	// Similar keys that were never inserted must miss.
	for _, k := range []string{"abcdefgh1", "abcdefgh\x00", "z", "abcde\x00fg"} {
		if _, ok := tr.Get([]byte(k)); ok {
			t.Fatalf("phantom key %q", k)
		}
	}
}

func TestLayerDelete(t *testing.T) {
	tr := newTestTree()
	tr.Put([]byte("prefix--0123456789"), 1)
	tr.Put([]byte("prefix--0123456780"), 2)
	if !tr.Delete([]byte("prefix--0123456789")) {
		t.Fatal("layer delete failed")
	}
	if _, ok := tr.Get([]byte("prefix--0123456789")); ok {
		t.Fatal("deleted layered key still present")
	}
	if v, ok := tr.Get([]byte("prefix--0123456780")); !ok || v != 2 {
		t.Fatal("sibling layered key lost")
	}
}

func TestScanAscendingOrder(t *testing.T) {
	tr := newTestTree()
	const n = 3000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	var got []uint64
	tr.Scan(nil, -1, func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != n {
		t.Fatalf("scan visited %d, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan out of order at %d: %d >= %d", i, got[i-1], got[i])
		}
	}
}

func TestScanFromStartKeyWithLimit(t *testing.T) {
	tr := newTestTree()
	for i := 0; i < 100; i++ {
		tr.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	var got []uint64
	n := tr.Scan(EncodeUint64(37), 10, func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if n != 10 || len(got) != 10 {
		t.Fatalf("scan returned %d/%d items", n, len(got))
	}
	for i, v := range got {
		if v != uint64(37+i) {
			t.Fatalf("scan[%d] = %d, want %d", i, v, 37+i)
		}
	}
}

func TestScanReconstructsKeys(t *testing.T) {
	tr := newTestTree()
	keys := []string{"a", "ab", "abcdefgh", "abcdefghijk", "b", "prefix--0123456789"}
	for i, k := range keys {
		tr.Put([]byte(k), uint64(i))
	}
	var got []string
	tr.Scan(nil, -1, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("scan got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan keys = %v, want %v", got, want)
		}
	}
}

func TestScanStopsWhenFnReturnsFalse(t *testing.T) {
	tr := newTestTree()
	for i := 0; i < 50; i++ {
		tr.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	count := 0
	tr.Scan(nil, -1, func(k []byte, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("scan visited %d after early stop, want 5", count)
	}
}

func TestAgainstReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tr := newTestTree()
		model := map[string]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 20000; step++ {
			k := EncodeUint64(uint64(rng.Intn(2000)))
			switch rng.Intn(10) {
			case 0, 1:
				delete(model, string(k))
				tr.Delete(k)
			default:
				v := rng.Uint64()
				model[string(k)] = v
				tr.Put(k, v)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("seed %d: Len=%d model=%d", seed, tr.Len(), len(model))
		}
		for k, v := range model {
			got, ok := tr.Get([]byte(k))
			if !ok || got != v {
				t.Fatalf("seed %d: key %x = %d,%v want %d", seed, k, got, ok, v)
			}
		}
	}
}

// TestMTPlusPoolVariant runs the tree as MT+ does: with epoch boundaries,
// which flush nothing on the transient arena but splice the allocator's
// limbo, so the heap values that overwrites free are reused and the heap
// stops growing. It stops two boundaries after the first overwrites reuse
// freed values: those pops drain the offset pages that recorded the frees,
// a page drained in an epoch is reusable only after its boundary, and the
// pages recording the drained pages lag one boundary more.
func TestMTPlusPoolVariant(t *testing.T) {
	tr := newTestTree()
	const n, rounds, steady = 5000, 8, 3
	heapVal := func(i, round int) uint64 { return uint64(round+1)<<48 | uint64(i) } // ≥ 2^40: a heap block
	var used uint64
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			tr.Handle(i%4).Put(EncodeUint64(uint64(i)), heapVal(i, round))
		}
		if lines := tr.s.Advance(); lines != 0 {
			t.Fatalf("round %d: the boundary flushed %d lines", round, lines)
		}
		if d := tr.s.LimboDepth(); d != 0 {
			t.Fatalf("round %d: %d objects still in limbo after the boundary", round, d)
		}
		switch {
		case round == steady:
			used = tr.s.HeapUsed()
		case round > steady && tr.s.HeapUsed() != used:
			t.Fatalf("round %d: heap grew from %d to %d words: freed values are not reused", round, used, tr.s.HeapUsed())
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := tr.Get(EncodeUint64(uint64(i))); !ok || v != heapVal(i, rounds-1) {
			t.Fatalf("key %d = %d,%v", i, v, ok)
		}
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	tr := newTestTree()
	const perG, gs = 4000, 8
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.Handle(g)
			for i := 0; i < perG; i++ {
				k := uint64(g*perG + i)
				h.Put(EncodeUint64(k), k)
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != perG*gs {
		t.Fatalf("Len = %d, want %d", tr.Len(), perG*gs)
	}
	for k := uint64(0); k < perG*gs; k++ {
		if v, ok := tr.Get(EncodeUint64(k)); !ok || v != k {
			t.Fatalf("key %d = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tr := newTestTree()
	const n = 20000
	for i := 0; i < n; i += 2 {
		tr.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers insert odd keys (each writer owns a residue class, so every
	// odd key is inserted exactly once) and randomly overwrite even ones.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.Handle(g)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := g*2 + 1; i < n; i += 8 {
				h.Put(EncodeUint64(uint64(i)), uint64(i))
				k := uint64(rng.Intn(n) &^ 1)
				h.Put(EncodeUint64(k), k)
			}
		}(g)
	}
	// Readers: any value observed must equal its key.
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(n))
				if v, ok := tr.Get(EncodeUint64(k)); ok && v != k {
					errs <- fmt.Sprintf("key %d read %d", k, v)
					return
				}
			}
		}(g)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 4; i++ {
		// writers are 4 of the 8 waitgroup members; just wait for all
	}
	close(stop)
	<-done
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tr.Get(EncodeUint64(k)); !ok || v != k {
			t.Fatalf("key %d = %d,%v after stress", k, v, ok)
		}
	}
}

func TestConcurrentScansDuringInserts(t *testing.T) {
	tr := newTestTree()
	for i := 0; i < 10000; i += 2 {
		tr.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tr.Handle(1)
		for i := 1; i < 10000; i += 2 {
			h.Put(EncodeUint64(uint64(i)), uint64(i))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				start := uint64(r * 1000)
				var prev uint64
				first := true
				tr.Scan(EncodeUint64(start), 100, func(k []byte, v uint64) bool {
					if !first && v <= prev {
						t.Errorf("scan order violated: %d then %d", prev, v)
						return false
					}
					first, prev = false, v
					return true
				})
			}
		}(r)
	}
	wg.Wait()
}

func TestEmptyTreeScan(t *testing.T) {
	tr := newTestTree()
	if n := tr.Scan(nil, -1, func([]byte, uint64) bool { return true }); n != 0 {
		t.Fatalf("empty scan visited %d", n)
	}
}

func TestDeleteToEmptyAndReinsert(t *testing.T) {
	tr := newTestTree()
	for i := 0; i < 200; i++ {
		tr.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	for i := 0; i < 200; i++ {
		tr.Delete(EncodeUint64(uint64(i)))
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after full delete", tr.Len())
	}
	for i := 0; i < 200; i++ {
		tr.Put(EncodeUint64(uint64(i)), uint64(i*3))
	}
	for i := 0; i < 200; i++ {
		if v, ok := tr.Get(EncodeUint64(uint64(i))); !ok || v != uint64(i*3) {
			t.Fatalf("reinserted key %d = %d,%v", i, v, ok)
		}
	}
}

func TestKeysSharingIkeyDifferentLengths(t *testing.T) {
	tr := newTestTree()
	// All of these share the 8-byte slice "abc\0\0\0\0\0" prefix group
	// or are prefixes of each other.
	ks := [][]byte{
		[]byte("abc"),
		[]byte("abc\x00"),
		[]byte("abc\x00\x00"),
		[]byte("abc\x00\x00\x00"),
	}
	for i, k := range ks {
		tr.Put(k, uint64(i+10))
	}
	for i, k := range ks {
		v, ok := tr.Get(k)
		if !ok || v != uint64(i+10) {
			t.Fatalf("key %v = %d,%v want %d", k, v, ok, i+10)
		}
	}
	var got [][]byte
	tr.Scan(nil, -1, func(k []byte, v uint64) bool {
		got = append(got, k)
		return true
	})
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("scan order: %v before %v", got[i-1], got[i])
		}
	}
}

// TestTwoHandlesAgainstModel drives two handles at once, each over its
// own residue class of a shared keyspace (so each has an exact model),
// with puts, deletes and gets, and scans that must come back in strictly
// ascending key order. At the end one scan must list exactly the union of
// the models, in order.
func TestTwoHandlesAgainstModel(t *testing.T) {
	tr := New()
	const keyspace, steps = 4000, 30000
	models := make([]map[uint64]uint64, 2)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := range models {
		models[g] = map[uint64]uint64{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, model := tr.Handle(g), models[g]
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for step := 0; step < steps; step++ {
				k := uint64(rng.Intn(keyspace/2)*2 + g)
				key := EncodeUint64(k)
				switch r := rng.Intn(20); {
				case r < 8:
					v := rng.Uint64() >> uint(rng.Intn(64)) // inline and heap values
					_, had := model[k]
					if inserted := h.Put(key, v); inserted == had {
						errs <- fmt.Sprintf("handle %d: Put(%d) inserted=%v, model had it=%v", g, k, inserted, had)
						return
					}
					model[k] = v
				case r < 12:
					_, had := model[k]
					if removed := h.Delete(key); removed != had {
						errs <- fmt.Sprintf("handle %d: Delete(%d) = %v, model had it=%v", g, k, removed, had)
						return
					}
					delete(model, k)
				case r < 19:
					want, had := model[k]
					if v, ok := h.Get(key); ok != had || v != want {
						errs <- fmt.Sprintf("handle %d: Get(%d) = %d,%v, model %d,%v", g, k, v, ok, want, had)
						return
					}
				default:
					var prev []byte
					bad := ""
					h.Scan(key, 50, func(k []byte, _ uint64) bool {
						if prev != nil && bytes.Compare(prev, k) >= 0 {
							bad = fmt.Sprintf("handle %d: scan %x after %x", g, k, prev)
							return false
						}
						prev = append(prev[:0], k...)
						return true
					})
					if bad != "" {
						errs <- bad
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	var want []uint64
	for _, m := range models {
		for k := range m {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	tr.Scan(nil, -1, func(k []byte, v uint64) bool {
		if i >= len(want) || !bytes.Equal(k, EncodeUint64(want[i])) {
			t.Fatalf("final scan position %d: key %x, want %d of %d", i, k, i, len(want))
		}
		if m := models[want[i]%2]; v != m[want[i]] {
			t.Fatalf("final scan: key %d = %d, model %d", want[i], v, m[want[i]])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("final scan listed %d keys, models hold %d", i, len(want))
	}
}
