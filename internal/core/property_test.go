package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"incll/internal/nvm"
)

// Property: for any op sequence and any crash point/policy, recovery
// yields exactly the model at the last committed boundary.
func TestPropertyCrashEqualsCommittedModel(t *testing.T) {
	f := func(seed int64, persistPct uint8, advanceEvery uint8) bool {
		if advanceEvery == 0 {
			advanceEvery = 1
		}
		p := float64(persistPct%101) / 100
		a := nvm.New(nvm.Config{Words: testArenaWords})
		s, _ := Open(a, testConfig())
		rng := rand.New(rand.NewSource(seed))
		committed := map[uint64]uint64{}
		working := map[uint64]uint64{}
		for i := 0; i < 1200; i++ {
			k := uint64(rng.Intn(600))
			switch rng.Intn(6) {
			case 0:
				s.Delete(EncodeUint64(k))
				delete(working, k)
			case 1:
				s.Get(EncodeUint64(k))
			default:
				v := rng.Uint64() % 100000
				s.Put(EncodeUint64(k), v)
				working[k] = v
			}
			if i%int(advanceEvery%64+8) == 0 {
				s.Advance()
				committed = map[uint64]uint64{}
				for k, v := range working {
					committed[k] = v
				}
			}
		}
		a.Crash(nvm.RandomPolicy(p, seed))
		a.ResetReservations()
		s2, _ := Open(a, testConfig())
		for k, v := range committed {
			if got, ok := s2.Get(EncodeUint64(k)); !ok || got != v {
				return false
			}
		}
		return countKeys(s2) == len(committed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ValInCLL packing round-trips every 44-bit value word — heap
// pointers and tagged inline values alike.
func TestPropertyValInCLLRoundTrip(t *testing.T) {
	f := func(vw uint64, idx uint8, epoch uint64) bool {
		vw &= valInCLLMask
		i := int(idx % 15)
		w := packValInCLL(vw, i, epoch)
		return valInCLLWord(w) == vw && valInCLLIdx(w) == i && valInCLLEp16(w) == epoch&0xFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: inline value words round-trip any payload of 0..5 bytes and
// always fit the ValInCLL capture field.
func TestPropertyInlineValueWordRoundTrip(t *testing.T) {
	f := func(data [MaxInlineBytes]byte, n uint8) bool {
		b := data[:n%(MaxInlineBytes+1)]
		w := inlineVW(b)
		if !vwIsInline(w) || w&valInCLLMask != w {
			return false
		}
		if vwInlineLen(w) != len(b) {
			return false
		}
		for i, c := range b {
			if byte(w>>(vwInlineData+8*uint(i))) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the uint64↔bytes value convention is a bijection on uint64s.
func TestPropertyValueEncodingRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := EncodeValue(v)
		if v < 1<<40 && len(b) > MaxInlineBytes {
			return false // the uint64 fast path must stay inline
		}
		return DecodeValue(b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the epoch word packing round-trips.
func TestPropertyEpochWordRoundTrip(t *testing.T) {
	f := func(epoch uint64, logged bool) bool {
		epoch = epoch % (1 << 62)
		w := packEpochWord(epoch, logged)
		return epochOf(w) == epoch && loggedBit(w) == logged
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the kinds word holds 14 independent nibbles.
func TestPropertyKindsWordIndependence(t *testing.T) {
	f := func(initial uint64, idx uint8, val uint8) bool {
		i := int(idx % LeafWidth)
		k := val % 10
		w := withKind(initial, i, k)
		if kindAt(w, i) != k {
			return false
		}
		for j := 0; j < LeafWidth; j++ {
			if j != i && kindAt(w, j) != kindAt(initial, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the width-14 permutation stays a bijection under arbitrary
// insert/remove/truncate churn.
func TestPropertyPermBijection(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := permIdentity
		live := 0
		for step := 0; step < 300; step++ {
			switch {
			case live < LeafWidth && (live == 0 || rng.Intn(2) == 0):
				p = p.insertFrom(rng.Intn(live+1), live)
				live++
			case rng.Intn(10) == 0 && live > 0:
				keep := rng.Intn(live + 1)
				p = p.truncate(keep)
				live = keep
			default:
				p = p.remove(rng.Intn(live))
				live--
			}
			if p.count() != live {
				t.Fatalf("seed %d: count %d != live %d", seed, p.count(), live)
			}
			var mask uint16
			for i := 0; i < 15; i++ {
				s := p.slot(i)
				if mask&(1<<uint(s)) != 0 {
					t.Fatalf("seed %d: duplicate slot %d", seed, s)
				}
				mask |= 1 << uint(s)
			}
			if mask != 0x7FFF {
				t.Fatalf("seed %d: lost slots (mask %x)", seed, mask)
			}
		}
	}
}

// Property: swapFree, the relocation's permutation store, keeps the count,
// the slot multiset and — since the slot it swaps in carries the same key —
// the key order, for every live position and every free one.
func TestPropertyPermSwapFree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := permIdentity
		for i, n := 0, rng.Intn(LeafWidth); i < n; i++ {
			p = p.insertFrom(rng.Intn(i+1), i)
		}
		for i := rng.Intn(4); i > 0 && p.count() > 0; i-- {
			p = p.remove(rng.Intn(p.count()))
		}
		var keys [LeafWidth + 1]int // keys[slot]: its live entry's rank
		for pos := 0; pos < p.count(); pos++ {
			keys[p.slot(pos)] = pos
		}
		for pos := 0; pos < p.count(); pos++ {
			for j := p.count(); j < LeafWidth; j++ {
				q := p.swapFree(pos, j)
				keys[q.slot(pos)] = pos // the relocated entry keeps its key
				if q.count() != p.count() {
					t.Fatalf("seed %d swapFree(%d, %d): count %d, want %d", seed, pos, j, q.count(), p.count())
				}
				if q.slot(pos) != p.slot(j) || q.slot(j) != p.slot(pos) {
					t.Fatalf("seed %d swapFree(%d, %d) = %x from %x: positions not exchanged", seed, pos, j, uint64(q), uint64(p))
				}
				var mask uint16
				for i := 0; i <= LeafWidth; i++ {
					mask |= 1 << uint(q.slot(i))
					if i != pos && i != j && q.slot(i) != p.slot(i) {
						t.Fatalf("seed %d swapFree(%d, %d) moved position %d", seed, pos, j, i)
					}
				}
				if mask != 0x7FFF {
					t.Fatalf("seed %d swapFree(%d, %d): slots %x, want every one once", seed, pos, j, mask)
				}
				for i := 1; i < q.count(); i++ {
					if keys[q.slot(i-1)] >= keys[q.slot(i)] {
						t.Fatalf("seed %d swapFree(%d, %d): key order broken at position %d", seed, pos, j, i)
					}
				}
				keys[q.slot(pos)] = 0
			}
		}
	}
}

// Property: insertFrom, liveMask and pickFree agree with a model that keeps
// the live slots in key order and the free ones in the order the
// permutation lists them, over random insert/remove/relocate churn with
// periodic epoch starts — the inserts and relocations take only positions
// pickFree offers, as the tree's do.
func TestPropertyPermInsertFromPickFree(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := permIdentity
		var live []int // live slots in position order
		free := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
		start, startLive := p, map[int]bool{}
		for step := 0; step < 400; step++ {
			if rng.Intn(8) == 0 { // an epoch boundary
				start, startLive = p, map[int]bool{}
				for _, sl := range live {
					startLive[sl] = true
				}
			}
			line := rng.Intn(3) - 1
			want := -1
			for i, sl := range free {
				if startLive[sl] {
					continue
				}
				if valLine(sl) == line {
					want = len(live) + i
					break
				}
				if want < 0 {
					want = len(live) + i
				}
			}
			if got := p.pickFree(start, line); got != want {
				t.Fatalf("seed %d step %d: pickFree(%x, %d) on %x = %d, want %d", seed, step, uint64(start), line, uint64(p), got, want)
			}
			switch op := rng.Intn(3); {
			case op == 0 && want >= 0: // insert
				pos := rng.Intn(len(live) + 1)
				sl := free[want-len(live)]
				p = p.insertFrom(pos, want)
				free = append(free[:want-len(live)], free[want-len(live)+1:]...)
				live = append(live[:pos], append([]int{sl}, live[pos:]...)...)
			case op == 1 && want >= 0 && len(live) > 0: // relocate
				pos := rng.Intn(len(live))
				p = p.swapFree(pos, want)
				live[pos], free[want-len(live)] = free[want-len(live)], live[pos]
			case op == 2 && len(live) > 0: // remove
				pos := rng.Intn(len(live))
				p = p.remove(pos)
				free = append([]int{live[pos]}, free...)
				live = append(live[:pos], live[pos+1:]...)
			}
			var mask uint16
			for i, sl := range append(append(append([]int{}, live...), free...), 14) {
				if p.slot(i) != sl {
					t.Fatalf("seed %d step %d: %x position %d holds slot %d, model %v|%v", seed, step, uint64(p), i, p.slot(i), live, free)
				}
				if i < len(live) {
					mask |= 1 << uint(sl)
				}
			}
			if p.count() != len(live) || p.liveMask() != mask {
				t.Fatalf("seed %d step %d: count %d mask %x, model %d %x", seed, step, p.count(), p.liveMask(), len(live), mask)
			}
		}
	}
}

// Adversarial crash: persist exactly the value-line containing InCLL1 and
// nothing else. The recovery protocol must still roll the update back
// (the InCLL was written before the value in the same line) without
// touching committed state.
func TestAdversarialPersistOnlyValueLine(t *testing.T) {
	a, s := newStore(t)
	model := map[uint64]uint64{}
	for i := uint64(0); i < 5; i++ {
		s.Put(EncodeUint64(i), i+100)
		model[i] = i + 100
	}
	s.Advance()
	s.Put(EncodeUint64(2), 999) // doomed update, logged in InCLL1's line

	for phase := 0; phase < 2; phase++ {
		a.Crash(nvm.EvenOddPolicy(phase))
		s2 := reopen(t, a, testConfig())
		verifyModel(t, s2, model, "adversarial value line")
		s = s2
		// Redo the doomed update for the next phase (no advance).
		s.Put(EncodeUint64(2), 999)
	}
}

// Adversarial: a crash during the very first epoch of a fresh store must
// recover to empty (nothing was ever committed).
func TestCrashInFirstEpochRecoversEmpty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a := nvm.New(nvm.Config{Words: testArenaWords})
		s, _ := Open(a, testConfig())
		for i := uint64(0); i < 3000; i++ {
			s.Put(EncodeUint64(i), i)
		}
		a.Crash(nvm.RandomPolicy(0.5, seed))
		s2 := reopen(t, a, testConfig())
		if n := countKeys(s2); n != 0 {
			t.Fatalf("seed %d: %d keys survived an uncommitted first epoch", seed, n)
		}
	}
}

// Eviction enabled: background write-backs during the epoch must never
// leak uncommitted state past a crash (the InCLL undo entries persist with
// their lines and recovery applies them).
func TestCrashWithBackgroundEviction(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := nvm.New(nvm.Config{Words: testArenaWords, DirtyCapacity: 64, Seed: seed})
		s, _ := Open(a, testConfig())
		model := map[uint64]uint64{}
		for i := uint64(0); i < 2000; i++ {
			s.Put(EncodeUint64(i), i)
			model[i] = i
		}
		s.Advance()
		for i := uint64(0); i < 1500; i++ {
			s.Put(EncodeUint64(i%2000), 777777+i)
			if i%5 == 0 {
				s.Delete(EncodeUint64((i * 13) % 2000))
			}
		}
		a.Crash(nvm.RandomPolicy(0.5, seed))
		a.ResetReservations()
		s2, _ := Open(a, Config{Workers: 2, LogSegWords: 1 << 16, HeapWords: 1 << 20})
		verifyModel(t, s2, model, "eviction")
	}
}
