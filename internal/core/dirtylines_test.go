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
	if dirty, want := leafDirty(a, leaf), []int{0, 2, 4}; !slices.Equal(dirty, want) {
		t.Fatalf("leaf lines %v dirty, want %v (line 0, the ikey line, the shared value line)", dirty, want)
	}
}

// A removal and an insert in one leaf in one epoch are both absorbed by the
// InCLLp: the insert skips the slot the removal vacated for one that was
// free at epoch start, so no log entry and no fence, and the leaf's dirty
// lines are line 0 and the new slot's ikey and value lines.
func TestRemoveThenInsertNeedsNoFence(t *testing.T) {
	a, s := newStore(t)
	for k := uint64(0); k < 10; k++ {
		s.Put(EncodeUint64(k), k) // one leaf, key k in slot k, slots 10..13 free
	}
	s.Advance()
	h := s.Handle(0)
	leaf := h.ref(h.rootCell0().root())
	st0 := a.Stats().Snapshot()
	s.Delete(EncodeUint64(3))
	s.Put(EncodeUint64(100), 100)
	if d := a.Stats().Snapshot().Sub(st0); d.Fences != 0 {
		t.Fatalf("remove-then-insert issued %d fences, want 0", d.Fences)
	}
	if p := leaf.perm(); p.slot(p.count()-1) != 10 {
		t.Fatalf("key 100 is in slot %d, want slot 10, free at epoch start", p.slot(p.count()-1))
	}
	if dirty, want := leafDirty(a, leaf), []int{0, 2, 4}; !slices.Equal(dirty, want) {
		t.Fatalf("leaf lines %v dirty, want %v (line 0, slot 10's ikey and value lines)", dirty, want)
	}
}

// leafDirty crashes a, persisting nothing, and returns its dirty lines
// numbered from leaf's line 0, sorted.
func leafDirty(a *nvm.Arena, leaf nodeRef) []int {
	var dirty []int
	a.Crash(nvm.PolicyFunc(func(line int) bool {
		dirty = append(dirty, line-int(leaf.off/nvm.WordsPerLine))
		return false
	}))
	slices.Sort(dirty)
	return dirty
}

// touch only reads: on every node a descent, a B-link step or a scan can
// reach in a multi-layer tree, on the highest node offset the heap hands out
// and on offset 0, it dirties no line and moves no persistence counter.
func TestTouchIsReadOnly(t *testing.T) {
	s, _, _ := iterTestStore(t, 1, 3000)
	a, h := s.Arena(), s.Handle(0)
	var nodes []uint64
	var walk func(off uint64)
	walk = func(off uint64) {
		n := h.ref(off)
		nodes = append(nodes, off)
		if !n.isLeaf() {
			for i := 0; i <= n.nkeys(); i++ {
				walk(n.child(i))
			}
			return
		}
		p := n.perm()
		for i := 0; i < p.count(); i++ {
			if sl := p.slot(i); n.kind(sl) == kindLayer {
				walk(a.Load(n.val(sl) + aRoot))
			}
		}
	}
	walk(a.Load(h.rootCell0().off + tRoot))
	var layers int
	for _, off := range nodes {
		if n := h.ref(off); !n.isLeaf() && n.parent() == 0 {
			layers++
		}
	}
	if len(nodes) < 100 || layers < 2 {
		t.Fatalf("%d nodes, %d layers with an interior root: want a bigger tree", len(nodes), layers)
	}
	var top uint64
	for off := h.ah.AllocNode(); off != 0; off = h.ah.AllocNode() {
		top = max(top, off)
	}
	nodes = append(nodes, top, 0)

	dirty0, st0 := a.DirtyLines(), a.Stats().Snapshot()
	for _, off := range nodes {
		h.ref(off).touch()
	}
	if d := a.DirtyLines() - dirty0; d != 0 {
		t.Fatalf("touch dirtied %d lines", d)
	}
	if st := a.Stats().Snapshot(); st != st0 {
		t.Fatalf("touch moved the arena counters: %v, then %v", st0, st)
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

// MaxValueBytes fits a heap value word's length field, bits 31..43 of the
// 44 the ValInCLL captures: otherwise this constant is negative and the
// package does not compile.
const _ uint64 = valInCLLMask>>vwLenShift - MaxValueBytes

// valueBlockSizes are the byte lengths the value-block tests store: around
// the inline bound, one line, four lines (churn_bytes' 256) and the largest.
var valueBlockSizes = []int{6, 8, 9, 64, 65, 248, 256, 257, 300, MaxValueBytes}

// heapDirty crashes s's arena, persisting nothing, and returns its dirty
// heap lines outside the leaf at leafOff, sorted.
func heapDirty(s *Store, leafOff uint64) []int {
	heapLine := int(s.versions.heapOff / nvm.WordsPerLine)
	leafLine := int(leafOff / nvm.WordsPerLine)
	var dirty []int
	s.Arena().Crash(nvm.PolicyFunc(func(line int) bool {
		if line >= heapLine && (line < leafLine || line >= leafLine+NodeWords/nvm.WordsPerLine) {
			dirty = append(dirty, line)
		}
		return false
	}))
	slices.Sort(dirty)
	return dirty
}

// lineSpan returns the lines of the words [off, off+words).
func lineSpan(off, words uint64) []int {
	var lines []int
	for l := off / nvm.WordsPerLine; l <= (off+words-1)/nvm.WordsPerLine; l++ {
		lines = append(lines, int(l))
	}
	return lines
}

// valueBlock returns the heap block behind k's value word.
func valueBlock(t *testing.T, h Handle, k []byte) (off uint64, n int) {
	t.Helper()
	vw, ok := h.layerGet(h.rootCell0(), k, nil)
	if !ok || vwIsInline(vw) {
		t.Fatalf("key %x: value word %#x is not a heap block", k, vw)
	}
	return vwBlock(vw)
}

// A fresh n-byte value dirties the lines its bytes fill and no other heap
// line: the block starts at the object's base, and it has no length word
// and the object no allocator header. A 256-byte value is four
// lines.
func TestValueBlockDirtiesItsBytesLines(t *testing.T) {
	for _, n := range valueBlockSizes {
		_, s := newStore(t)
		h := s.Handle(0)
		s.PutBytes(EncodeUint64(0), patternValue(0, n)) // carves the class
		s.Advance()
		s.PutBytes(EncodeUint64(1), patternValue(1, n))
		off, got := valueBlock(t, h, EncodeUint64(1))
		if got != n {
			t.Fatalf("%d bytes: the value word says %d", n, got)
		}
		dirty := heapDirty(s, h.rootCell0().root())
		if want := lineSpan(off, blockWords(n)); !slices.Equal(dirty, want) || len(dirty) != (n+63)/64 {
			t.Fatalf("%d bytes: heap lines %v dirty, want the block's %v (%d lines)", n, dirty, want, (n+63)/64)
		}
	}
}

// An overwrite in a later epoch frees the old block: that writes one
// offset into a fresh limbo page of the allocator and no line of the old
// block, whose bytes stay intact for the ValInCLL's undo.
func TestValueBlockOverwriteLeavesTheOldBlockClean(t *testing.T) {
	for _, n := range valueBlockSizes {
		_, s := newStore(t)
		h := s.Handle(0)
		k := EncodeUint64(1)
		s.PutBytes(k, patternValue(1, n))
		s.Advance()
		old, _ := valueBlock(t, h, k)
		s.PutBytes(k, patternValue(2, n))
		fresh, _ := valueBlock(t, h, k)
		dirty := heapDirty(s, h.rootCell0().root())
		block := lineSpan(fresh, blockWords(n))
		page := slices.DeleteFunc(slices.Clone(dirty), func(l int) bool { return slices.Contains(block, l) })
		if len(page) != 1 || len(dirty) != len(block)+1 || slices.Contains(lineSpan(old, blockWords(n)), page[0]) {
			t.Fatalf("%d bytes: heap lines %v dirty, want the new block's %v and one limbo page line outside the old block %v",
				n, dirty, block, lineSpan(old, blockWords(n)))
		}
	}
}

// A heap value word survives the ValInCLL's 44-bit capture at both ends of
// the offset and length ranges, and its inline tag stays clear.
func TestValueBlockWordRoundTrip(t *testing.T) {
	for _, off := range []uint64{2, 1<<31 - 2} {
		for _, n := range []int{6, 255, MaxValueBytes} {
			w := valInCLLWord(packValInCLL(heapVW(off, n), 3, 7))
			if gotOff, gotN := vwBlock(w); gotOff != off || gotN != n || vwIsInline(w) {
				t.Fatalf("offset %d, %d bytes: captured word %#x decodes to offset %d, %d bytes, inline %v",
					off, n, w, gotOff, gotN, vwIsInline(w))
			}
		}
	}
}
