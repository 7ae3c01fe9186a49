package core

import (
	"math/rand"
	"sort"
	"testing"

	"incll/internal/nvm"
	"incll/internal/testutil"
)

// iterTestKeys builds a mixed-shape key population: short keys, exactly
// 8-byte keys, and long layered keys sharing prefixes, so every walk
// crosses layer boundaries in both directions.
func iterTestKeys(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, 0, n)
	seen := map[string]bool{}
	for len(keys) < n {
		var k []byte
		switch rng.Intn(4) {
		case 0: // short
			k = make([]byte, 1+rng.Intn(7))
			rng.Read(k)
		case 1: // exactly one ikey
			k = EncodeUint64(rng.Uint64() % 1000)
		case 2: // long, shared 8-byte prefix → same second-layer tree
			k = append(EncodeUint64(uint64(rng.Intn(4))), make([]byte, 1+rng.Intn(20))...)
			rng.Read(k[8:])
		default: // long random
			k = make([]byte, 9+rng.Intn(24))
			rng.Read(k)
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// iterTestStore loads a store with a sorted reference model: mixed key
// shapes, value sizes spanning inline and every heap class.
func iterTestStore(t testing.TB, seed int64, n int) (*Store, []string, map[string]string) {
	t.Helper()
	a := nvm.New(nvm.Config{Words: 1 << 23})
	s, _ := Open(a, Config{Workers: 2, LogSegWords: 1 << 16, HeapWords: 1 << 22})
	rng := rand.New(rand.NewSource(seed))
	model := map[string]string{}
	for _, k := range iterTestKeys(rng, n) {
		v := make([]byte, rng.Intn(64))
		rng.Read(v)
		s.PutBytes(k, v)
		model[string(k)] = string(v)
	}
	sorted := make([]string, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	return s, sorted, model
}

// collectFwd drains a cursor ascending from its current protocol start.
func collectFwd(it Cursor) (keys, vals []string) {
	for ok := it.First(); ok; ok = it.Next() {
		keys = append(keys, string(it.Key()))
		vals = append(vals, string(it.Value()))
	}
	return
}

func collectRev(it Cursor) (keys, vals []string) {
	for ok := it.Last(); ok; ok = it.Prev() {
		keys = append(keys, string(it.Key()))
		vals = append(vals, string(it.Value()))
	}
	return
}

// TestIterMatchesLegacyScan asserts the cursor's ascending stream is
// byte-identical to the legacy callback Scan — the compatibility contract
// the façade wrappers rely on.
func TestIterMatchesLegacyScan(t *testing.T) {
	s, _, _ := iterTestStore(t, 1, 2000)
	var sk, sv []string
	s.ScanBytes(nil, -1, func(k, v []byte) bool {
		sk = append(sk, string(k))
		sv = append(sv, string(v))
		return true
	})
	it := s.NewIter(IterOptions{})
	defer it.Close()
	ik, iv := collectFwd(it)
	if len(ik) != len(sk) {
		t.Fatalf("cursor saw %d keys, legacy scan %d", len(ik), len(sk))
	}
	for i := range ik {
		if ik[i] != sk[i] || iv[i] != sv[i] {
			t.Fatalf("entry %d: cursor (%x, %x) != scan (%x, %x)", i, ik[i], iv[i], sk[i], sv[i])
		}
	}
}

// TestIterReverseMatchesForwardReversed asserts descending iteration is
// exactly the ascending stream reversed, across layers and value shapes.
func TestIterReverseMatchesForwardReversed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, sorted, model := iterTestStore(t, seed, 1500)
		it := s.NewIter(IterOptions{})
		fk, fv := collectFwd(it)
		rk, rv := collectRev(it)
		it.Close()
		if len(fk) != len(sorted) || len(rk) != len(sorted) {
			t.Fatalf("seed %d: forward %d, reverse %d, model %d", seed, len(fk), len(rk), len(sorted))
		}
		for i := range fk {
			j := len(rk) - 1 - i
			if fk[i] != sorted[i] || fk[i] != rk[j] || fv[i] != rv[j] {
				t.Fatalf("seed %d: entry %d mismatch: fwd %x rev %x model %x", seed, i, fk[i], rk[j], sorted[i])
			}
			if fv[i] != model[fk[i]] {
				t.Fatalf("seed %d: value mismatch at %x", seed, fk[i])
			}
		}
	}
}

// TestIterSeekAndBounds checks SeekGE/SeekLT and LowerBound/UpperBound
// against the sorted model from random pivots, in both directions.
func TestIterSeekAndBounds(t *testing.T) {
	s, sorted, _ := iterTestStore(t, 4, 1200)
	rng := rand.New(rand.NewSource(99))
	pivot := func() string {
		if rng.Intn(4) == 0 { // a key that exists
			return sorted[rng.Intn(len(sorted))]
		}
		k := make([]byte, 1+rng.Intn(12))
		rng.Read(k)
		return string(k)
	}
	it := s.NewIter(IterOptions{})
	defer it.Close()
	for trial := 0; trial < 200; trial++ {
		p := pivot()
		// SeekGE: the first key ≥ p.
		i := sort.SearchStrings(sorted, p)
		if ok := it.SeekGE([]byte(p)); ok != (i < len(sorted)) {
			t.Fatalf("SeekGE(%x) valid=%v, want %v", p, ok, i < len(sorted))
		} else if ok && string(it.Key()) != sorted[i] {
			t.Fatalf("SeekGE(%x) = %x, want %x", p, it.Key(), sorted[i])
		}
		// SeekLT: the last key < p.
		if ok := it.SeekLT([]byte(p)); ok != (i > 0) {
			t.Fatalf("SeekLT(%x) valid=%v, want %v", p, ok, i > 0)
		} else if ok && string(it.Key()) != sorted[i-1] {
			t.Fatalf("SeekLT(%x) = %x, want %x", p, it.Key(), sorted[i-1])
		}
	}
	for trial := 0; trial < 50; trial++ {
		lo, hi := pivot(), pivot()
		if lo > hi {
			lo, hi = hi, lo
		}
		want := []string{}
		for _, k := range sorted {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		bit := s.NewIter(IterOptions{LowerBound: []byte(lo), UpperBound: []byte(hi)})
		gotF, _ := collectFwd(bit)
		gotR, _ := collectRev(bit)
		bit.Close()
		if len(gotF) != len(want) || len(gotR) != len(want) {
			t.Fatalf("bounds [%x, %x): fwd %d rev %d want %d", lo, hi, len(gotF), len(gotR), len(want))
		}
		for i := range want {
			if gotF[i] != want[i] || gotR[len(want)-1-i] != want[i] {
				t.Fatalf("bounds [%x, %x): entry %d mismatch", lo, hi, i)
			}
		}
	}
}

// TestIterDirectionSwitch walks forward a random distance, turns around,
// and checks Prev/Next land on the model's neighbours from any position.
func TestIterDirectionSwitch(t *testing.T) {
	s, sorted, _ := iterTestStore(t, 5, 600)
	it := s.NewIter(IterOptions{})
	defer it.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(len(sorted))
		if !it.SeekGE([]byte(sorted[i])) || string(it.Key()) != sorted[i] {
			t.Fatalf("SeekGE(existing %x) missed", sorted[i])
		}
		steps := rng.Intn(40)
		pos := i
		for st := 0; st < steps; st++ {
			var ok bool
			if rng.Intn(2) == 0 {
				ok = it.Next()
				pos++
			} else {
				ok = it.Prev()
				pos--
			}
			switch {
			case pos < 0:
				if ok {
					t.Fatalf("Prev before first returned %x", it.Key())
				}
				if !it.Next() || string(it.Key()) != sorted[0] {
					t.Fatal("Next after before-first is not First")
				}
				pos = 0
			case pos >= len(sorted):
				if ok {
					t.Fatalf("Next past last returned %x", it.Key())
				}
				if !it.Prev() || string(it.Key()) != sorted[len(sorted)-1] {
					t.Fatal("Prev after after-last is not Last")
				}
				pos = len(sorted) - 1
			default:
				if !ok || string(it.Key()) != sorted[pos] {
					t.Fatalf("step %d: at %x, want %x", st, it.Key(), sorted[pos])
				}
			}
		}
	}
}

// TestIterDoesNotBlockCheckpoint is the regression test for the
// whole-scan epoch guard: a full-table iteration interleaves epoch
// advances from the SAME goroutine between entries. If the cursor held
// the guard across batches (as the legacy Scan holds it across the whole
// walk), the first Advance would self-deadlock; and the iteration must
// still deliver every committed key afterwards.
func TestIterDoesNotBlockCheckpoint(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 23})
	s, _ := Open(a, Config{Workers: 1, LogSegWords: 1 << 18, HeapWords: 1 << 22})
	const n = 3 * iterBatchMax // several guard-batches worth of keys
	for i := 0; i < n; i++ {
		s.Put(EncodeUint64(uint64(i)), uint64(i))
	}
	s.Advance()

	adv0 := s.Epochs().Advances()
	it := s.NewIter(IterOptions{})
	defer it.Close()
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		if it.ValueUint64() != uint64(count) {
			t.Fatalf("entry %d holds %d", count, it.ValueUint64())
		}
		count++
		// One checkpoint per entry: possible only because the cursor
		// released the epoch guard after the batch that delivered it.
		s.Advance()
	}
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
	if got := s.Epochs().Advances() - adv0; got < int64(n) {
		t.Fatalf("only %d advances completed during iteration", got)
	}
}

// TestIterSeesConcurrentInsertsBelowPosition: a cursor is not a snapshot,
// but resuming by key means inserts behind the position never appear and
// inserts ahead of it do.
func TestIterAcrossBatchBoundaries(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 23})
	s, _ := Open(a, Config{Workers: 1, LogSegWords: 1 << 16, HeapWords: 1 << 22})
	// Keys 0, 2, 4, …: odd keys are inserted mid-iteration.
	const n = 2 * iterBatchMax
	for i := 0; i < n; i += 2 {
		s.Put(EncodeUint64(uint64(i)), 1)
	}
	it := s.NewIter(IterOptions{})
	defer it.Close()
	var got []uint64
	inserted := false
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, bytesToU64(it.Key()))
		if !inserted && len(got) == iterBatchMin+1 {
			// Past the first batch: insert ahead of the cursor (must
			// appear) and overwrite behind it (no effect on the walk).
			s.Put(EncodeUint64(uint64(n-1)), 1)
			s.Put(EncodeUint64(0), 2)
			inserted = true
		}
	}
	if !inserted {
		t.Fatal("iteration too short to cross a batch boundary")
	}
	last := got[len(got)-1]
	if last != n-1 {
		t.Fatalf("insert ahead of the cursor missing: last key %d, want %d", last, n-1)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated at %d", got[i])
		}
	}
}

func bytesToU64(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// TestIterUint64View checks ValueUint64 agrees with the Get view.
func TestIterUint64View(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 22})
	s, _ := Open(a, Config{Workers: 1, LogSegWords: 1 << 16, HeapWords: 1 << 20})
	vals := []uint64{0, 1, 255, 1 << 20, 1<<40 - 1, 1 << 40, 1<<63 | 12345}
	for i, v := range vals {
		s.Put(EncodeUint64(uint64(i)), v)
	}
	it := s.NewIter(IterOptions{})
	defer it.Close()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if it.ValueUint64() != vals[i] {
			t.Fatalf("key %d: cursor %d, want %d", i, it.ValueUint64(), vals[i])
		}
		i++
	}
	if i != len(vals) {
		t.Fatalf("saw %d keys, want %d", i, len(vals))
	}
}

// TestIterEmptyAndMissChecks covers empty stores, empty bounds, and seeks
// past the ends.
func TestIterEdgeCases(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 22})
	s, _ := Open(a, Config{Workers: 1, LogSegWords: 1 << 16, HeapWords: 1 << 20})
	it := s.NewIter(IterOptions{})
	if it.First() || it.Last() || it.Next() || it.Prev() || it.Valid() {
		t.Fatal("cursor over an empty store claims an entry")
	}
	it.Close()

	s.Put(EncodeUint64(5), 5)
	it = s.NewIter(IterOptions{})
	if !it.SeekGE(EncodeUint64(0)) || it.ValueUint64() != 5 {
		t.Fatal("SeekGE below the only key missed it")
	}
	if it.SeekGE(EncodeUint64(6)) {
		t.Fatal("SeekGE past the last key claims an entry")
	}
	if !it.Prev() || it.ValueUint64() != 5 {
		t.Fatal("Prev from after-last is not Last")
	}
	if it.SeekLT(EncodeUint64(5)) {
		t.Fatal("SeekLT at the first key claims an entry")
	}
	if !it.Next() || it.ValueUint64() != 5 {
		t.Fatal("Next from before-first is not First")
	}
	it.Close()

	// Disjoint bounds: nothing in range.
	it = s.NewIter(IterOptions{LowerBound: EncodeUint64(10), UpperBound: EncodeUint64(20)})
	if it.First() || it.Last() {
		t.Fatal("cursor outside the bounds claims an entry")
	}
	it.Close()
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestIterRecycledAllocatesNothing pins the per-request cursor shape —
// NewIter → Seek → step×k → Close — at zero allocations in steady state,
// forward and reverse, over keys that cross layers (the reverse walk's
// leaf snapshots nest) and values that live in the batch arena.
func TestIterRecycledAllocatesNothing(t *testing.T) {
	s, sorted, model := iterTestStore(t, 7, 3000)
	h := s.Handle(1)
	pivots := make([][]byte, len(sorted))
	for i, k := range sorted {
		pivots[i] = []byte(k)
	}
	lo, hi := pivots[len(pivots)/4], pivots[3*len(pivots)/4]
	shapes := map[string]func(pivot []byte, steps int) int{
		"forward": func(pivot []byte, steps int) int {
			it := h.NewIter(IterOptions{})
			n := 0
			for ok := it.SeekGE(pivot); ok && n < steps; ok = it.Next() {
				n += len(it.Key()) + len(it.Value())
			}
			it.Close()
			return n
		},
		"reverse": func(pivot []byte, steps int) int {
			it := h.NewIter(IterOptions{})
			n := 0
			for ok := it.SeekLT(pivot); ok && n < steps; ok = it.Prev() {
				n += len(it.Key()) + len(it.Value())
			}
			it.Close()
			return n
		},
		"bounded, both ends": func(pivot []byte, steps int) int {
			it := h.NewIter(IterOptions{LowerBound: lo, UpperBound: hi})
			n := 0
			for ok := it.First(); ok && n < steps; ok = it.Next() {
				n++
			}
			for ok := it.Last(); ok && n < 2*steps; ok = it.Prev() {
				n++
			}
			it.Close()
			return n
		},
	}
	for name, scan := range shapes {
		pass := func() {
			for i := 0; i < len(pivots); i += 37 {
				if scan(pivots[i], 1+i%120) == 0 && len(model) == 0 {
					t.Fatal("unreachable; keeps scan's result live")
				}
			}
		}
		pass() // grow every buffer to this pass's high-water mark
		if allocs := testing.AllocsPerRun(5, pass); allocs != 0 && !testutil.RaceEnabled {
			t.Errorf("%s: %.0f allocations per pass of recycled cursors, want 0", name, allocs)
		}
	}
}

// TestIterCloseContract: closing twice is a no-op, a closed cursor reads
// as unpositioned and panics on positioning until it is reissued, and the
// next NewIter on the worker is that same storage, as good as new.
func TestIterCloseContract(t *testing.T) {
	s, sorted, _ := iterTestStore(t, 8, 400)
	h := s.Handle(0)
	it := h.NewIter(IterOptions{})
	if !it.First() {
		t.Fatal("First on a loaded store found nothing")
	}
	it.Close()
	it.Close()
	if it.Valid() || it.Key() != nil || it.Value() != nil || it.ValueUint64() != 0 {
		t.Fatal("closed cursor still reads as positioned")
	}
	if it.Next() {
		t.Fatal("closed cursor stepped")
	}
	mustPanic(t, "Prev after Close", func() { it.Prev() }) // from after-last, Prev is Last
	mustPanic(t, "First after Close", func() { it.First() })
	mustPanic(t, "Last after Close", func() { it.Last() })
	mustPanic(t, "SeekGE after Close", func() { it.SeekGE(nil) })
	mustPanic(t, "SeekLT after Close", func() { it.SeekLT([]byte(sorted[3])) })

	again := h.NewIter(IterOptions{})
	if again.(*Iter) != it.(*Iter) {
		t.Fatal("the worker's next cursor is not the one it closed last")
	}
	other := h.NewIter(IterOptions{}) // slot empty: a second live cursor is fresh
	if other.(*Iter) == again.(*Iter) {
		t.Fatal("two live cursors share storage")
	}
	if k, _ := collectFwd(again); len(k) != len(sorted) {
		t.Fatalf("reissued cursor saw %d keys, want %d", len(k), len(sorted))
	}
	if k, _ := collectRev(other); len(k) != len(sorted) {
		t.Fatalf("second cursor saw %d keys, want %d", len(k), len(sorted))
	}
	again.Close()
	other.Close() // slot taken: dropped, not queued
	if got := h.NewIter(IterOptions{}); got.(*Iter) != again.(*Iter) {
		t.Fatal("slot did not keep the first cursor closed")
	}
	if s.Handle(1).NewIter(IterOptions{}).(*Iter) == again.(*Iter) {
		t.Fatal("worker 1 was handed worker 0's cursor")
	}
}

// TestIterRecycleStartsFresh: nothing of one use — bounds, orientation,
// position, the learned batch budget — reaches the next.
func TestIterRecycleStartsFresh(t *testing.T) {
	s, sorted, _ := iterTestStore(t, 9, 1500)
	h := s.Handle(0)
	lo, hi := sorted[500], sorted[600]
	it := h.NewIter(IterOptions{LowerBound: []byte(lo), UpperBound: []byte(hi), Reverse: true})
	if k, _ := collectFwd(it); len(k) != 100 || k[0] != lo {
		t.Fatalf("bounded walk saw %d keys from %x, want 100 from %x", len(k), k[0], lo)
	}
	it.Close()

	it = h.NewIter(IterOptions{})
	st := it.(*Iter)
	if st.batch != iterBatchMin || st.consumed != iterBatchMin || st.state != posFresh || st.opts.Reverse ||
		st.opts.LowerBound != nil || st.opts.UpperBound != nil {
		t.Fatalf("recycled cursor carries state: batch %d consumed %d state %d opts %+v", st.batch, st.consumed, st.state, st.opts)
	}
	if !it.Next() || string(it.Key()) != sorted[0] { // fresh: Next is First
		t.Fatalf("Next on a reissued cursor is at %x, want the first key", it.Key())
	}
	if !it.SeekGE([]byte(sorted[590])) {
		t.Fatal("SeekGE inside the old bounds missed")
	}
	for i := 590; i < 700; i++ { // walks past the previous use's upper bound
		if string(it.Key()) != sorted[i] {
			t.Fatalf("entry %d: at %x, want %x", i, it.Key(), sorted[i])
		}
		it.Next()
	}
	if !it.SeekLT([]byte(sorted[510])) {
		t.Fatal("SeekLT inside the old bounds missed")
	}
	for i := 509; i >= 400; i-- { // and below its lower bound
		if string(it.Key()) != sorted[i] {
			t.Fatalf("entry %d: at %x, want %x", i, it.Key(), sorted[i])
		}
		it.Prev()
	}
	it.Close()

	// One bound of the previous use must not survive as the other's absence.
	it = h.NewIter(IterOptions{UpperBound: []byte(hi)})
	it.Close()
	it = h.NewIter(IterOptions{LowerBound: []byte(lo)})
	if k, _ := collectFwd(it); len(k) != len(sorted)-500 {
		t.Fatalf("lower-bounded walk saw %d keys, want %d", len(k), len(sorted)-500)
	}
	it.Close()
}
