package core

import (
	"math/rand"
	"testing"
)

// allSlots reports whether p's nibbles hold each slot 0..14 exactly once.
func allSlots(p perm) bool {
	var mask uint16
	for i := 0; i < 15; i++ {
		s := p.slot(i)
		if s < 0 || s > 14 || mask&(1<<uint(s)) != 0 {
			return false
		}
		mask |= 1 << uint(s)
	}
	return true
}

func TestPermIdentity(t *testing.T) {
	p := permIdentity
	if p.count() != 0 {
		t.Fatalf("identity count = %d", p.count())
	}
	for i := 0; i < 15; i++ {
		if p.slot(i) != i {
			t.Fatalf("identity slot(%d) = %d", i, p.slot(i))
		}
	}
	if p.slot(p.count()) != 0 {
		t.Fatalf("first free slot = %d", p.slot(p.count()))
	}
}

func TestPermInsertFront(t *testing.T) {
	p := permIdentity
	p = p.insertFrom(0, p.count()) // slot 0 at pos 0
	if p.count() != 1 || p.slot(0) != 0 {
		t.Fatalf("after insert: %#x", uint64(p))
	}
	// Next free slot must be 1.
	if p.slot(p.count()) != 1 {
		t.Fatalf("free slot = %d, want 1", p.slot(p.count()))
	}
	p = p.insertFrom(0, p.count()) // slot 1 at pos 0: live order [1, 0]
	if p.count() != 2 || p.slot(0) != 1 || p.slot(1) != 0 {
		t.Fatalf("after second insert: %#x", uint64(p))
	}
}

func TestPermRemoveReturnsSlotToFreeRegion(t *testing.T) {
	p := permIdentity
	p = p.insertFrom(0, p.count()) // live [0]
	p = p.insertFrom(1, p.count()) // live [0 1]
	p = p.remove(0)                // live [1], slot 0 free again
	if p.count() != 1 || p.slot(0) != 1 {
		t.Fatalf("after remove: %#x", uint64(p))
	}
	if p.slot(p.count()) != 0 {
		t.Fatalf("removed slot not first in the free region: %#x", uint64(p))
	}
	if !allSlots(p) {
		t.Fatalf("permutation lost slots: %#x", uint64(p))
	}
}

func TestPermTruncate(t *testing.T) {
	p := permIdentity
	for i := 0; i < 10; i++ {
		p = p.insertFrom(i, p.count())
	}
	p = p.truncate(4)
	if p.count() != 4 {
		t.Fatalf("truncate count = %d", p.count())
	}
	if !allSlots(p) {
		t.Fatalf("truncate lost slots: %#x", uint64(p))
	}
}

// Property: any sequence of inserts (of the first or of any free slot),
// removes and free-slot swaps keeps the permutation a bijection over slots
// 0..14, keeps count consistent, and never moves slot 14 out of the nibble
// past the leaf's width.
func TestPermPropertyBijection(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := permIdentity
		live := 0
		for step := 0; step < 400; step++ {
			switch {
			case live < LeafWidth && (live == 0 || rng.Intn(3) == 0):
				j := live + rng.Intn(LeafWidth-live)
				p = p.insertFrom(rng.Intn(live+1), j)
				live++
			case live < LeafWidth && rng.Intn(2) == 0:
				p = p.swapFree(rng.Intn(live), live+rng.Intn(LeafWidth-live))
			default:
				p = p.remove(rng.Intn(live))
				live--
			}
			if p.count() != live {
				t.Fatalf("seed %d step %d: count %d != live %d", seed, step, p.count(), live)
			}
			if !allSlots(p) || p.slot(LeafWidth) != LeafWidth {
				t.Fatalf("seed %d step %d: not a bijection: %#x", seed, step, uint64(p))
			}
		}
	}
}
