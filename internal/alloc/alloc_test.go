package alloc

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
)

type fixture struct {
	arena *nvm.Arena
	mgr   *epoch.Manager
	al    *Allocator
	meta  uint64
	heap  uint64
}

const testHeapWords = 1 << 16

func build(a *nvm.Arena, shards int) *fixture {
	// Deterministic layout: epoch header, then alloc meta, then heap.
	// The same Reserve sequence re-derives it after a crash.
	heapWords := min(testHeapWords, a.Size()/2)
	eOff := a.Reserve(epoch.HeaderWords)
	meta := a.Reserve(MetaWords(shards))
	heap := a.Reserve(heapWords)
	mgr, _ := epoch.Open(a, eOff)
	al := New(a, mgr, meta, heap, heapWords, shards)
	return &fixture{arena: a, mgr: mgr, al: al, meta: meta, heap: heap}
}

func newFixture(t testing.TB, shards int) *fixture {
	t.Helper()
	return build(nvm.New(nvm.Config{Words: 1 << 20}), shards)
}

// rebuild simulates process restart on the same NVM image: the reserve
// sequence replays and re-derives the same region offsets.
func (f *fixture) rebuild() *fixture {
	f.arena.ResetReservations()
	return build(f.arena, f.al.Shards())
}

func TestAllocReturnsDistinctAlignedPayloads(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		p := h.Alloc(2)
		if p == 0 {
			t.Fatal("alloc failed with plenty of heap")
		}
		if p%2 != 0 {
			t.Fatalf("payload %d not 16-byte aligned", p)
		}
		if seen[p] {
			t.Fatalf("payload %d handed out twice", p)
		}
		seen[p] = true
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		payload uint64
		class   int
	}{
		{1, 0}, {4, 0}, {5, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3},
		// 32 payload words is a 256-byte value and 38 a 300-byte one: the
		// 32- and 40-word classes. Objects carry no header.
		{32, 3}, {33, 4}, {38, 4}, {40, 4}, {41, 5}, {48, 5}, {49, 6}, {64, 6}, {128, 7},
		{129, 8}, {192, 8}, {256, 9}, {384, 10}, {1000, 13}, {1024, 13}, {1025, -1},
	}
	if classWords[nodeClass] != NodeClassWords {
		t.Fatalf("the node class holds %d-word objects, nodes are %d words", classWords[nodeClass], NodeClassWords)
	}
	for _, c := range cases {
		if got := ClassFor(c.payload); got != c.class {
			t.Errorf("ClassFor(%d) = %d, want %d", c.payload, got, c.class)
		}
	}
}

func TestFreeGoesToLimboNotFreeList(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	p := h.Alloc(2)
	before := f.al.FreeListLen(0, 0)
	h.Free(p, 2)
	if got := f.al.LimboLen(0, 0); got != 1 {
		t.Fatalf("limbo len = %d, want 1", got)
	}
	if got := f.al.FreeListLen(0, 0); got != before {
		t.Fatalf("free list changed by Free: %d -> %d", before, got)
	}
}

func TestEBRFreedObjectNotReusedSameEpoch(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	p := h.Alloc(2)
	h.Free(p, 2)
	// Drain the entire free list this epoch; p must never come back.
	for {
		q := h.Alloc(2)
		if q == 0 {
			break
		}
		if q == p {
			t.Fatal("freed object reused within the same epoch (EBR violation)")
		}
	}
}

func TestLimboSplicedAtEpochBoundary(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	p := h.Alloc(2)
	h.Free(p, 2)
	f.mgr.Advance()
	if got := f.al.LimboLen(0, 0); got != 0 {
		t.Fatalf("limbo not spliced: len=%d", got)
	}
	// Now p is allocatable again.
	seen := false
	for {
		q := h.Alloc(2)
		if q == 0 {
			break
		}
		if q == p {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("freed object never became allocatable after the epoch boundary")
	}
}

func TestAllocNeverFencesOnFastPath(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	h.Alloc(2) // warm up (refill may touch the wilderness)
	s0 := f.arena.Stats().Snapshot()
	for i := 0; i < 50; i++ {
		p := h.Alloc(2)
		h.Free(p, 2)
	}
	d := f.arena.Stats().Snapshot().Sub(s0)
	if d.Fences != 0 || d.Writebacks != 0 {
		t.Fatalf("alloc/free fast path issued persistence ops: %v", d)
	}
}

func TestHeapExhaustionReturnsZero(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 14})
	eOff := a.Reserve(epoch.HeaderWords)
	meta := a.Reserve(MetaWords(1))
	// A 1024-word heap: the page reserve of one shard's 28 stacks and the
	// pool's two takes about 550 words, the rest holds ~90 class-0 objects.
	heap := a.Reserve(1024)
	mgr, _ := epoch.Open(a, eOff)
	al := New(a, mgr, meta, heap, 1024, 1)
	h := al.Handle(0)
	n := 0
	for h.Alloc(2) != 0 {
		n++
		if n > 10000 {
			t.Fatal("allocation never exhausted an 8 KiB heap")
		}
	}
	if n == 0 {
		t.Fatal("no allocation succeeded")
	}
	if got := h.Alloc(2); got != 0 {
		t.Fatalf("alloc after exhaustion = %d, want 0", got)
	}
}

func TestCrashRollsBackAllocations(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	// Commit a known state: one allocation, then a boundary.
	p0 := h.Alloc(2)
	f.mgr.Advance()
	committedFree := f.al.FreeListLen(0, 0)

	// Allocate more in the doomed epoch.
	var doomed []uint64
	for i := 0; i < 10; i++ {
		doomed = append(doomed, h.Alloc(2))
	}
	f.arena.Crash(nvm.RandomPolicy(0.5, 7))

	f2 := f.rebuild()
	if got := f2.al.FreeListLen(0, 0); got != committedFree {
		t.Fatalf("free list after crash = %d objects, want %d", got, committedFree)
	}
	// The committed allocation p0 must not be on the free list.
	h2 := f2.al.Handle(0)
	for {
		q := h2.Alloc(2)
		if q == 0 {
			break
		}
		if q == p0 {
			t.Fatal("committed allocation resurfaced on the free list")
		}
	}
	_ = doomed
}

func TestCrashRollsBackFrees(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	p := h.Alloc(2)
	f.mgr.Advance() // commit: p is allocated
	h.Free(p, 2)    // doomed free
	f.arena.Crash(nvm.RandomPolicy(0.5, 11))

	f2 := f.rebuild()
	// p must still be allocated: draining every class-0 object never
	// yields p.
	h2 := f2.al.Handle(0)
	for {
		q := h2.Alloc(2)
		if q == 0 {
			break
		}
		if q == p {
			t.Fatal("doomed free survived the crash: object leaked back to the free list")
		}
	}
}

func TestCommittedStateSurvivesManyCrashPolicies(t *testing.T) {
	// Payloads of the smallest class and of the 40- and 48-word classes.
	for _, payload := range []uint64{2, 33, 41} {
		c := ClassFor(payload)
		for seed := int64(0); seed < 20; seed++ {
			f := newFixture(t, 1)
			h := f.al.Handle(0)
			var live []uint64
			for i := 0; i < 20; i++ {
				live = append(live, h.Alloc(payload))
			}
			f.mgr.Advance()
			want := f.al.FreeListLen(0, c) // committed free count

			// Doomed epoch churn.
			for i := 0; i < 15; i++ {
				h.Free(live[i], payload)
				h.Alloc(payload)
			}
			f.arena.Crash(nvm.RandomPolicy(0.5, seed))
			f2 := f.rebuild()
			if got := f2.al.FreeListLen(0, c); got != want {
				t.Fatalf("payload %d, seed %d: free list = %d, want %d", payload, seed, got, want)
			}
		}
	}
}

func TestShardsAreIndependent(t *testing.T) {
	f := newFixture(t, 4)
	ps := map[uint64]bool{}
	for s := 0; s < 4; s++ {
		h := f.al.Handle(s)
		for i := 0; i < 50; i++ {
			p := h.Alloc(2)
			if p == 0 {
				t.Fatal("alloc failed")
			}
			if ps[p] {
				t.Fatalf("shards handed out the same object %d", p)
			}
			ps[p] = true
		}
	}
}

// Property: alternating churn with boundaries and crashes never loses or
// duplicates objects: free sets + limbo + offset pages + the live set
// always tile the carved heap.
func TestPropertyNoLeakNoDup(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := newFixture(t, 1)
		h := f.al.Handle(0)
		rng := rand.New(rand.NewSource(seed))
		live := map[uint64]int{}
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0:
				f.mgr.Advance()
			case 1, 2, 3:
				for p := range live {
					h.Free(p, 2)
					delete(live, p)
					break
				}
			default:
				p := h.Alloc(2)
				if _, ok := live[p]; ok {
					t.Fatalf("seed %d: object %d allocated twice", seed, p)
				}
				live[p] = 0
			}
		}
		f.checkTiling(t, fmt.Sprintf("seed %d", seed), live)
	}
}

// Stack and run words round-trip their fields: a page below 2^31 words, a
// count up to fourteen and, in the limbo word, a line-aligned bottom page.
// A page's slots round-trip two 32-bit offsets per word.
func TestStackWordRoundTrip(t *testing.T) {
	f := func(page, tail uint64, n uint8) bool {
		page &= 1<<31 - 1
		tail &= (1<<31 - 1) &^ (pageWords - 1)
		count := uint64(n) % (pageSlots + 1)
		w := limboWord(page|count<<32, tail)
		return stackPage(w) == page && stackCount(w) == count && limboTail(w) == tail &&
			stackTop(w) == page|count<<32 && stackPage(stackTop(w)) == page
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	al := newFixture(t, 1).al
	page := al.heapOff
	for i := uint64(1); i <= pageSlots; i++ {
		al.setSlot(page, i, 1<<31-i)
	}
	for i := uint64(1); i <= pageSlots; i++ {
		if got := al.slot(page, i); got != 1<<31-i {
			t.Fatalf("slot %d = %d, want %d", i, got, 1<<31-i)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocNodeIsLineAlignedAndDisjoint(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		n := h.AllocNode()
		if n == 0 {
			t.Fatal("AllocNode failed")
		}
		if n%nvm.WordsPerLine != 0 {
			t.Fatalf("node %d not cache-line aligned", n)
		}
		// Nodes must not overlap each other, payload or header.
		for off := n; off < n+NodeClassWords; off++ {
			if seen[off] {
				t.Fatalf("node word %d handed out twice", off)
			}
			seen[off] = true
		}
	}
}

// Payload writes cannot reach the free sets: objects carry no header, so an
// object whose every word is ^0 is freed and spliced, a doomed epoch reuses
// some (filling them again) and frees others, and a crash under any persist
// subset of the objects' lines leaves the free sets, limbo and the
// committed live objects a tiling of the carved heap.
func TestHeaderSurvivesPayloadWrites(t *testing.T) {
	policies := map[string]func(lines []int) nvm.Policy{
		"subset-even-rest": func(l []int) nvm.Policy { return nvm.SubsetPolicy(l, 0x5555555555555555, true) },
		"subset-odd":       func(l []int) nvm.Policy { return nvm.SubsetPolicy(l, 0xAAAAAAAAAAAAAAAA, false) },
		"evenodd0":         func([]int) nvm.Policy { return nvm.EvenOddPolicy(0) },
		"evenodd1":         func([]int) nvm.Policy { return nvm.EvenOddPolicy(1) },
	}
	for c, size := range classWords {
		for name, policy := range policies {
			f := newFixture(t, 1)
			fill := func(obj uint64) {
				for w := uint64(0); w < size; w++ {
					f.arena.Store(obj+w, ^uint64(0)) // worst-case garbage
				}
			}
			objs := make([]uint64, 12)
			for i := range objs {
				objs[i] = f.allocClass(0, c)
				fill(objs[i])
			}
			for _, obj := range objs[:8] {
				f.freeClass(0, c, obj)
			}
			f.mgr.Advance() // commit: objs[:8] spliced onto the free stack
			for i := 0; i < 4; i++ {
				fill(f.allocClass(0, c))
			}
			var lines []int // the objects the doomed epoch writes or frees
			for _, obj := range objs {
				lines = append(lines, lineSpan(obj, size)...)
			}
			for _, obj := range objs[8:] {
				f.freeClass(0, c, obj)
			}
			f.arena.Crash(policy(lines))
			f = f.rebuild()
			f.checkTiling(t, fmt.Sprintf("class %d, %s", c, name), liveOf(c, objs[8:]))
		}
	}
}

func TestNodeAllocCrashRollback(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	n1 := h.AllocNode()
	f.mgr.Advance() // commit: n1 allocated
	var doomed []uint64
	for i := 0; i < 10; i++ {
		doomed = append(doomed, h.AllocNode())
	}
	f.arena.Crash(nvm.RandomPolicy(0.5, 99))
	f2 := f.rebuild()
	h2 := f2.al.Handle(0)
	got := map[uint64]bool{}
	for {
		n := h2.AllocNode()
		if n == 0 {
			break
		}
		if n == n1 {
			t.Fatal("committed node allocation resurfaced on the free list")
		}
		got[n] = true
	}
	for _, d := range doomed {
		if !got[d] {
			t.Fatalf("doomed node %d leaked (not allocatable after crash)", d)
		}
	}
}

// ---- offset pages: the tiling invariant, splices, cuts and lines ----

func (f *fixture) allocClass(s, c int) uint64 {
	if c == nodeClass {
		return f.al.Handle(s).AllocNode()
	}
	return f.al.Handle(s).Alloc(ClassPayloadWords(c))
}

func (f *fixture) freeClass(s, c int, p uint64) {
	if c == nodeClass {
		f.al.Handle(s).FreeNode(p)
		return
	}
	f.al.Handle(s).Free(p, ClassPayloadWords(c))
}

// liveOf maps each of objs to class c.
func liveOf(c int, objs []uint64) map[uint64]int {
	live := map[uint64]int{}
	for _, obj := range objs {
		live[obj] = c
	}
	return live
}

// lineSpan returns the lines of the words [off, off+words).
func lineSpan(off, words uint64) []int {
	var lines []int
	for l := off / nvm.WordsPerLine; l <= (off+words-1)/nvm.WordsPerLine; l++ {
		lines = append(lines, int(l))
	}
	return lines
}

// checkTiling fails the test unless the objects every (shard, class) holds
// — free (stack and carved run), in limbo, or as offset pages —, the page
// pool's pages — free, idle in its limbo, or its own stacks' — and live
// (object → class) tile the carved heap exactly: no object is lost and
// none is held twice. Every stack's pages below its top must be full, as
// the page reserve assumes.
func (f *fixture) checkTiling(t testing.TB, when string, live map[uint64]int) {
	t.Helper()
	type span struct {
		off  uint64
		c    int
		what string
	}
	var spans []span
	add := func(what string, c int, objs []uint64) {
		for _, obj := range objs {
			spans = append(spans, span{obj, c, what})
		}
	}
	for s := 0; s < f.al.Shards(); s++ {
		for c := range classWords {
			off := f.al.classOff(s, c)
			add("free", c, f.al.freeAt(off, classWords[c]))
			add("limbo", c, f.al.limboAt(off))
			add("page", poolClass, f.al.pagesAt(off))
		}
	}
	add("free page", poolClass, f.al.freeAt(f.al.poolOff, pageWords))
	add("idle page", poolClass, f.al.limboAt(f.al.poolOff))
	add("pool page", poolClass, f.al.pagesAt(f.al.poolOff))
	for off := f.al.metaOff; off <= f.al.poolOff; off += nvm.WordsPerLine {
		limbo := f.arena.Load(off + chLimbo)
		if off != f.al.wildOff && (f.al.partialBelowTop(f.arena.Load(off+chFree), 0) || f.al.partialBelowTop(limbo, limboTail(limbo))) {
			t.Fatalf("%s: head line %d: a stack has a partial page below its top", when, off)
		}
	}
	for obj, c := range live {
		add("live", c, []uint64{obj})
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.off, b.off) })
	end, prev := f.al.heapOff, span{what: "the heap's start"}
	for _, sp := range spans {
		if sp.off < end {
			t.Fatalf("%s: %s class-%d object %d overlaps %s object %d", when, sp.what, sp.c, sp.off, prev.what, prev.off)
		}
		if sp.off > end {
			t.Fatalf("%s: words %d..%d, after %s object %d, are held by nobody", when, end, sp.off, prev.what, prev.off)
		}
		end, prev = sp.off+sizeOf(sp.c), sp
	}
	if bump := f.arena.Load(f.al.wildOff + wBump); end != bump {
		t.Fatalf("%s: objects tile the heap to %d, the wilderness starts at %d", when, end, bump)
	}
}

// poolClass stands for the page pool's objects in a tiling.
const poolClass = -1

func sizeOf(c int) uint64 {
	if c == poolClass {
		return pageWords
	}
	return classWords[c]
}

var spliceTestClasses = []int{0, 1, 3, nodeClass, 5, 7} // 4, 8, 32, 40 (nodes), 48 and 128 words

// classKey names one (shard, class) pair of stacks.
type classKey struct{ s, c int }

// Randomized multi-epoch churn over two handles and several classes, the
// page class among them: before every boundary each limbo's links lead
// from its top page down to the bottom page its word records, and after
// every boundary limbo is empty and free + live tile everything carved.
func TestSpliceTailMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		f := newFixture(t, 2)
		rng := rand.New(rand.NewSource(seed))
		live := map[classKey][]uint64{}
		boundaries := 0
		for step := 0; step < 4000; step++ {
			k := classKey{rng.Intn(2), spliceTestClasses[rng.Intn(len(spliceTestClasses))]}
			switch r := rng.Intn(40); {
			case r == 0:
				for s := 0; s < 2; s++ {
					for _, c := range spliceTestClasses {
						limbo := f.arena.Load(f.al.classOff(s, c) + chLimbo)
						_, pages := f.al.stack(limbo, 0)
						if limbo != 0 && pages[len(pages)-1] != limboTail(limbo) {
							t.Fatalf("seed %d step %d: shard %d class %d: limbo walks to page %d, its word records %d",
								seed, step, s, c, pages[len(pages)-1], limboTail(limbo))
						}
					}
				}
				f.mgr.Advance()
				boundaries++
				all := map[uint64]int{}
				for k, objs := range live {
					maps.Copy(all, liveOf(k.c, objs))
					if n := f.al.LimboLen(k.s, k.c); n != 0 {
						t.Fatalf("seed %d boundary %d: shard %d class %d: %d objects left in limbo", seed, boundaries, k.s, k.c, n)
					}
				}
				f.checkTiling(t, fmt.Sprintf("seed %d boundary %d", seed, boundaries), all)
			case r < 20 && len(live[k]) > 0:
				i := rng.Intn(len(live[k]))
				f.freeClass(k.s, k.c, live[k][i])
				live[k] = slices.Delete(live[k], i, i+1)
			default:
				p := f.allocClass(k.s, k.c)
				if p == 0 {
					t.Fatalf("seed %d step %d: heap exhausted", seed, step)
				}
				live[k] = append(live[k], p)
			}
		}
		if boundaries < 20 {
			t.Fatalf("seed %d: only %d boundaries", seed, boundaries)
		}
	}
}

// doomedSplice drives f through: 30 allocations and 10 frees per (shard,
// class); a boundary; 10 more frees; a second boundary, whose splice runs
// in the epoch that is about to fail and writes each limbo bottom page's
// link; 5 doomed frees and 20 doomed allocations, which drain the spliced
// pages and follow those links. It returns the objects live as of the last
// commit.
func doomedSplice(f *fixture) map[uint64]int {
	live := map[classKey][]uint64{}
	each := func(do func(k classKey)) {
		for s := 0; s < f.al.Shards(); s++ {
			for _, c := range spliceTestClasses {
				do(classKey{s, c})
			}
		}
	}
	free := func(k classKey, n int) {
		for _, p := range live[k][:n] {
			f.freeClass(k.s, k.c, p)
		}
		live[k] = live[k][n:]
	}
	each(func(k classKey) {
		for i := 0; i < 30; i++ {
			live[k] = append(live[k], f.allocClass(k.s, k.c))
		}
		free(k, 10)
	})
	f.mgr.Advance()
	each(func(k classKey) { free(k, 10) })
	f.mgr.Advance()
	committed := map[uint64]int{}
	for k, objs := range live {
		maps.Copy(committed, liveOf(k.c, objs))
	}
	each(func(k classKey) {
		free(k, 5)
		for i := 0; i < 20; i++ {
			f.allocClass(k.s, k.c)
		}
	})
	return committed
}

// A crash that fails a splice epoch rolls the splice back but not the link
// it wrote into the limbo's bottom page. Recovery finds that page in the
// limbo word, not by following links, and splices again: limbo is empty,
// free + committed live tile the carved heap, and the recovered allocator
// splices the next boundary's frees the same way.
func TestCrashedSpliceRedoneFromLimboTail(t *testing.T) {
	policies := map[string]func() nvm.Policy{
		"all":      func() nvm.Policy { return nvm.PersistAll },
		"none":     func() nvm.Policy { return nvm.PersistNone },
		"evenodd0": func() nvm.Policy { return nvm.EvenOddPolicy(0) },
		"evenodd1": func() nvm.Policy { return nvm.EvenOddPolicy(1) },
		"random1":  func() nvm.Policy { return nvm.RandomPolicy(0.5, 1) },
		"random2":  func() nvm.Policy { return nvm.RandomPolicy(0.5, 2) },
	}
	for name, policy := range policies {
		f := newFixture(t, 2)
		live := doomedSplice(f)
		f.arena.Crash(policy())
		f = f.rebuild()
		for s := 0; s < 2; s++ {
			for _, c := range spliceTestClasses {
				if n := f.al.LimboLen(s, c); n != 0 {
					t.Fatalf("%s: shard %d class %d: %d objects left in limbo after reopen", name, s, c, n)
				}
			}
		}
		f.checkTiling(t, name+": after reopen", live)
		for p, c := range live {
			f.freeClass(0, c, p) // shard 0 takes back every object
		}
		f.mgr.Advance()
		f.checkTiling(t, name+": after the next boundary", nil)
	}
}

// A page's slots past its durable count hold whatever a failed epoch or an
// earlier use left there. Planting live offsets in every such slot of the
// free stack's top page and of the limbo's pages, then crashing with every
// line persisted, must hand none of them out: recovery trusts the counts.
func TestTornPageCountIgnoresSlotsPastIt(t *testing.T) {
	for _, persist := range []nvm.Policy{nvm.PersistAll, nvm.PersistNone, nvm.EvenOddPolicy(0), nvm.EvenOddPolicy(1)} {
		f := newFixture(t, 1)
		const c = 3
		var objs []uint64
		for i := 0; i < 20; i++ {
			objs = append(objs, f.allocClass(0, c))
		}
		for _, obj := range objs[:3] {
			f.freeClass(0, c, obj)
		}
		f.mgr.Advance() // commit: a free page holding 3 offsets
		live := liveOf(c, objs[3:])
		for _, obj := range objs[3:5] { // doomed: a limbo page holding 2
			f.freeClass(0, c, obj)
		}
		off := f.al.classOff(0, c)
		for _, w := range []uint64{f.arena.Load(off + chFree), f.arena.Load(off + chLimbo)} {
			for i := stackCount(w) + 1; i <= pageSlots; i++ {
				f.al.setSlot(stackPage(w), i, objs[4+i]) // a live object
			}
		}
		f.arena.Crash(persist)
		f = f.rebuild()
		f.checkTiling(t, "after the crash", live)
		for range 3 + 64 - 20 {
			if obj := f.allocClass(0, c); live[obj] == c {
				t.Fatalf("live object %d handed out from a slot past its page's count", obj)
			}
		}
	}
}

// Seventy frees in one epoch dirty the class-head line, ⌈70/14⌉ offset
// pages and the page pool's head line: no line of a freed object.
func TestSeventyFreesShareTheirPageLines(t *testing.T) {
	f := newFixture(t, 1)
	const frees, c = 70, 3
	objs := make([]uint64, frees)
	for i := range objs {
		objs[i] = f.allocClass(0, c)
	}
	f.freeClass(0, 1, f.allocClass(0, 1)) // carves the page pool's run
	f.mgr.Advance()                       // splices that free
	f.mgr.Advance()                       // splices nothing
	for _, obj := range objs {
		f.freeClass(0, c, obj)
	}
	freed := map[int]bool{}
	for _, obj := range objs {
		for _, l := range lineSpan(obj, classWords[c]) {
			freed[l] = true
		}
	}
	head := int(f.al.classOff(0, c) / nvm.WordsPerLine)
	var dirty []int
	f.arena.Crash(nvm.PolicyFunc(func(line int) bool {
		if line != head {
			dirty = append(dirty, line)
		}
		if freed[line] {
			t.Errorf("line %d of a freed object is dirty", line)
		}
		return false
	}))
	if want := (frees+pageSlots-1)/pageSlots + 1; len(dirty) > want {
		t.Fatalf("%d frees dirtied %d lines besides the class head, want at most %d: %v", frees, len(dirty), want, dirty)
	}
}

// epochEnd is the set of live objects (object → class) at an epoch's end.
type epochEnd struct {
	e    uint64
	live map[uint64]int
}

// cutRun builds, on an eviction arena that CutAfter can cut, a committed
// state whose class-3 free stack holds two pages (6 on top of 14 offsets)
// beside a carved run, then runs the page protocol cut after its k-th
// store (0: run to the end). Each epoch allocates, then frees:
//   - E: eight pops, draining the top page into the pool's limbo; ten
//     frees, appending to a new limbo page;
//   - E's splice: the limbo's top (10) fills the free stack's top (12) and
//     its link names that page;
//   - E+1: eleven pops drain the spliced top page, whose pool-limbo page
//     pops the pool's last free page and records it beside; two frees;
//   - E+1's splice: the free stack's top (11) empties into the limbo's top
//     (2) and drains;
//   - E+2: three pops and a free, then its splice.
//
// It returns the fixture, the live objects at the end of every epoch that
// ended before the cut (the setup epoch first), and whether the cut came.
func cutRun(k int64) (f *fixture, ends []epochEnd, cut bool) {
	f = build(nvm.New(nvm.Config{Words: 1 << 13, DirtyCapacity: 1 << 20}), 1)
	const c = 3
	var objs []uint64
	for i := 0; i < 40; i++ {
		objs = append(objs, f.allocClass(0, c))
	}
	for _, obj := range objs[:20] {
		f.freeClass(0, c, obj)
	}
	live := liveOf(c, objs[20:])
	end := func() {
		ends = append(ends, epochEnd{f.mgr.Current(), maps.Clone(live)})
		f.mgr.Advance()
	}
	end()
	defer func() {
		f.arena.CutAfter(0)
		if r := recover(); r != nil {
			if r != nvm.ErrCut {
				panic(r)
			}
			cut = true
		}
	}()
	f.arena.CutAfter(k)
	step := func(pops int, frees []uint64) {
		for range pops {
			live[f.allocClass(0, c)] = c
		}
		for _, obj := range frees {
			f.freeClass(0, c, obj)
			delete(live, obj)
		}
		end()
	}
	step(8, objs[20:30])
	step(11, objs[30:32])
	step(3, objs[32:33])
	return f, ends, false
}

// The offset-page protocol cut after every one of its stores, each cut
// crossed with every subset of the lines dirty there and with both
// even/odd phases: recovery leaves free + limbo + pages + the live objects
// of the last committed epoch a tiling of the carved heap.
func TestEnumeratePageCuts(t *testing.T) {
	k := int64(1)
	for ; ; k++ {
		f, _, cut := cutRun(k)
		if !cut {
			break
		}
		var lines []int
		f.arena.Crash(nvm.PolicyFunc(func(line int) bool {
			lines = append(lines, line)
			return false
		}))
		if len(lines) > 10 {
			t.Fatalf("cut %d: %d dirty lines, more than the enumeration covers", k, len(lines))
		}
		policies := []nvm.Policy{nvm.EvenOddPolicy(0), nvm.EvenOddPolicy(1)}
		for mask := uint64(0); mask < 1<<len(lines); mask++ {
			policies = append(policies, nvm.SubsetPolicy(lines, mask, false))
		}
		for i, p := range policies {
			f, ends, _ := cutRun(k)
			f.arena.Crash(p)
			f = f.rebuild()
			last := len(ends) - 1
			for f.mgr.IsFailed(ends[last].e) {
				last--
			}
			f.checkTiling(t, fmt.Sprintf("cut after store %d, policy %d of lines %v", k, i, lines), ends[last].live)
		}
	}
	if k < 100 {
		t.Fatalf("the protocol made only %d stores", k-1)
	}
}

// fill allocates round-robin over shards and classes until every class
// fails, and returns what it got.
func (f *fixture) fill(shards int, classes []int) map[classKey][]uint64 {
	live := map[classKey][]uint64{}
	for failed := 0; failed < shards*len(classes); {
		failed = 0
		for s := range shards {
			for _, c := range classes {
				if p := f.allocClass(s, c); p != 0 {
					live[classKey{s, c}] = append(live[classKey{s, c}], p)
				} else {
					failed++
				}
			}
		}
	}
	return live
}

// A free cannot fail. Fill a heap until every allocation fails, free all
// of it in one epoch on the other shard, and after the boundary fill it
// again — popping every page the first frees filled, which then idle in
// the pool's limbo — and free all of it in that same epoch: the worst case
// the page reserve is sized for. Every state must tile, a crash must roll
// back to a tiling, and a boundary must make the space allocatable again.
func TestFreeNeverFailsOnAFullHeap(t *testing.T) {
	for _, classes := range [][]int{{0}, {1}, {0, 1, 3, nodeClass}, {13, 0}} {
		f := build(nvm.New(nvm.Config{Words: 1 << 15}), 2)
		name := fmt.Sprint(classes)
		freeAll := func(live map[classKey][]uint64) {
			for k, objs := range live {
				for _, p := range objs {
					f.freeClass(1-k.s, k.c, p)
				}
			}
		}
		first := f.fill(2, classes)
		freeAll(first)
		f.checkTiling(t, name+": first fill freed", nil)
		f.mgr.Advance()
		second := f.fill(2, classes)
		if n, m := len(slices.Concat(slices.Collect(maps.Values(first))...)), len(slices.Concat(slices.Collect(maps.Values(second))...)); m < n {
			t.Fatalf("%s: the second fill got %d objects, the first %d", name, m, n)
		}
		f.mgr.Advance()
		freeAll(second)
		f.checkTiling(t, name+": second fill freed", nil)
		committed := map[uint64]int{}
		for k, objs := range second {
			maps.Copy(committed, liveOf(k.c, objs))
		}
		f.arena.Crash(nvm.RandomPolicy(0.5, int64(len(classes))))
		f = f.rebuild()
		f.checkTiling(t, name+": after the crash", committed)
		freeAll(second)
		f.mgr.Advance()
		f.checkTiling(t, name+": after the boundary", nil)
		if third := f.fill(2, classes); len(third) == 0 {
			t.Fatalf("%s: nothing allocatable after the boundary", name)
		}
	}
}

// The trace splits a checkpoint's stop-the-world window into the flush
// (EvCheckpointPrepare's duration) and the boundary work — the OnAdvance
// callbacks, this package's splice among them, and the commit hooks
// (EvCheckpointCommit's argument). On a free-heavy run the two account for
// the window. Each block is written once, as a client writes its object:
// a free writes no line of the block, so without that the flush would hold
// only the offset pages, a window of a few microseconds in which the
// boundary's fences alone exceed a tenth.
func TestCheckpointTraceSplitsTheWindow(t *testing.T) {
	f := newFixture(t, 1)
	tr := obs.NewTracer(0)
	f.mgr.Instrument(tr, nil, 0)
	h := f.al.Handle(0)
	const epochs, blocks = 8, 6000
	for e := 0; e < epochs; e++ {
		ps := make([]uint64, blocks)
		for i := range ps {
			ps[i] = h.Alloc(ClassPayloadWords(1)) // one block per cache line
			f.arena.Store(ps[i], uint64(i))
		}
		for _, p := range ps {
			h.Free(p, ClassPayloadWords(1))
		}
		f.mgr.Advance()
	}
	var flush, parts, windows time.Duration
	commits := 0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.EvCheckpointPrepare:
			flush = ev.Dur
		case obs.EvCheckpointCommit:
			commits++
			boundary := time.Duration(ev.Arg)
			if boundary <= 0 || flush+boundary > ev.Dur {
				t.Fatalf("epoch %d: flush %v + boundary %v, window %v", ev.Epoch, flush, boundary, ev.Dur)
			}
			parts += flush + boundary
			windows += ev.Dur
		}
	}
	if commits != epochs {
		t.Fatalf("%d checkpoint commits traced, want %d", commits, epochs)
	}
	if parts < windows*9/10 {
		t.Fatalf("flush + boundary = %v of %v stopped: less than 90%% of the window is attributed", parts, windows)
	}
}

// The boundary splice costs the same however many blocks the epoch freed:
// ns/splice is the splice alone (ns/op includes allocating and freeing the
// blocks, which is linear).
func BenchmarkSpliceLimbo(b *testing.B) {
	for _, frees := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("frees=%d", frees), func(b *testing.B) {
			f := newFixture(b, 1)
			h := f.al.Handle(0)
			ps := make([]uint64, frees)
			var splice time.Duration
			for i := 0; i < b.N; i++ {
				for j := range ps {
					ps[j] = h.Alloc(2)
				}
				for _, p := range ps {
					h.Free(p, 2)
				}
				t0 := time.Now()
				f.al.spliceLimbo(f.mgr.Current())
				splice += time.Since(t0)
			}
			b.ReportMetric(float64(splice.Nanoseconds())/float64(b.N), "ns/splice")
		})
	}
}
