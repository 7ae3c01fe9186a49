package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"incll/internal/alloc"
	"incll/internal/nvm"
)

// What one operation costs the epoch's flush is the number of lines it
// dirties. On a leaf whose ValInCLLs carry an earlier epoch's tags, an update
// writes its slot's line alone — no nodeEpoch stamp, no lock word in line 0
// — and a delete writes line 0 alone.
func TestValueUpdateDirtiesOneLine(t *testing.T) {
	a, s := newStore(t)
	for k := uint64(0); k < LeafWidth; k++ {
		s.Put(EncodeUint64(k), k) // one leaf, key k in slot k
	}
	s.Advance()
	h := s.Handle(0)
	leaf := h.ref(h.rootCell0().root())
	if !leaf.isLeaf() {
		t.Fatal("root is not a leaf")
	}
	step := func(what string, want int, op func()) {
		t.Helper()
		before := a.DirtyLines()
		op()
		if got := a.DirtyLines() - before; got != want {
			t.Fatalf("%s dirtied %d lines, want %d", what, got, want)
		}
	}
	step("an update in line 3", 1, func() { s.Put(EncodeUint64(1), 100) })
	step("an update in line 4", 1, func() { s.Put(EncodeUint64(8), 100) })
	step("the same two updates again", 0, func() {
		s.Put(EncodeUint64(1), 101)
		s.Put(EncodeUint64(8), 101)
	})
	s.Advance()
	step("a delete", 1, func() { s.Delete(EncodeUint64(3)) })
	var dirty []int
	a.Crash(nvm.PolicyFunc(func(line int) bool {
		dirty = append(dirty, line)
		return false
	}))
	if line0 := int(leaf.off / nvm.WordsPerLine); len(dirty) != 1 || dirty[0] != line0 {
		t.Fatalf("after the delete lines %v are dirty, want the leaf's line 0 (%d) alone", dirty, line0)
	}
}

// A second hot slot in one value line moves to a free slot under the
// InCLLp (incll.go): no external-log entry, so no fence, and only line 0 and
// the new slot's ikey line join the value line the first update dirtied.
func TestRelocationNeedsNoFence(t *testing.T) {
	a, s := newStore(t)
	for k := uint64(0); k < 10; k++ {
		s.Put(EncodeUint64(k), k) // one leaf, key k in slot k, slots 10..13 free
	}
	s.Advance()
	h := s.Handle(0)
	leaf := h.ref(h.rootCell0().root())
	s.Put(EncodeUint64(8), 100) // claims InCLL2 (line 4)
	st0, dirty0 := a.Stats().Snapshot(), a.DirtyLines()
	s.Put(EncodeUint64(9), 100) // line 4's second hot slot: relocated to slot 10
	if d := a.Stats().Snapshot().Sub(st0); d.Fences != 0 {
		t.Fatalf("the relocation issued %d fences, want 0", d.Fences)
	}
	if got := a.DirtyLines() - dirty0; got > 2 {
		t.Fatalf("the relocation dirtied %d new lines, want at most 2", got)
	}
	if p := leaf.perm(); p.slot(9) != 10 {
		t.Fatalf("key 9 is in slot %d, want the free slot 10 of its value line", p.slot(9))
	}
	var dirty []int
	a.Crash(nvm.PolicyFunc(func(line int) bool {
		dirty = append(dirty, line-int(leaf.off/nvm.WordsPerLine))
		return false
	}))
	slices.Sort(dirty)
	if want := []int{0, 2, 4}; !slices.Equal(dirty, want) {
		t.Fatalf("leaf lines %v dirty, want %v (line 0, the ikey line, the shared value line)", dirty, want)
	}
}

// Property: the version table gives every node its own word. Whatever mix of
// size classes carved the heap, and however nodes were freed and recycled,
// no two node offsets the allocator hands out share a slot — up to the last
// node that fits.
func TestPropertyVersionSlotsInjective(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := nvm.New(nvm.Config{Words: 1 << 18})
		s, _ := Open(a, Config{Workers: 2, LogSegWords: 1 << 10, TxnSegWords: 1 << 10, HeapWords: 1<<17 + uint64(rng.Intn(1<<10))})
		owner := map[*atomic.Uint64]uint64{}
		var live []uint64
		full := false // a general allocation failed: carve nodes only, to the end
		for {
			ah := s.Handle(rng.Intn(2)).ah
			r := rng.Intn(10)
			if full {
				r = 0
			}
			if r < 4 {
				off := ah.AllocNode()
				if off == 0 {
					break
				}
				slot := s.versions.slot(off)
				if prev, ok := owner[slot]; ok && prev != off {
					t.Fatalf("seed %d: nodes at %d and %d share a version slot", seed, prev, off)
				}
				owner[slot] = off
				live = append(live, off)
			} else if r < 8 {
				full = ah.Alloc(1+uint64(rng.Intn(int(alloc.ClassPayloadWords(alloc.NumClasses-1))))) == 0
			} else if r < 9 && len(live) > 0 {
				i := rng.Intn(len(live))
				ah.FreeNode(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				s.Advance() // freed nodes become allocatable again
			}
		}
		if len(owner) < 100 {
			t.Fatalf("seed %d: only %d nodes allocated", seed, len(owner))
		}
	}
}
