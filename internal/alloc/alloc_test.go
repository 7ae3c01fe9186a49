package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
	eOff := a.Reserve(epoch.HeaderWords)
	meta := a.Reserve(MetaWords(shards))
	heap := a.Reserve(testHeapWords)
	mgr, _ := epoch.Open(a, eOff)
	al := New(a, mgr, meta, heap, testHeapWords, shards)
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
		{1, 0}, {2, 0}, {3, 1}, {6, 1}, {7, 2}, {14, 2}, {30, 3},
		// 33 payload words is a 256-byte value (length word + 32): the
		// 40-word class, not the 64-word one.
		{31, 4}, {33, 4}, {38, 4}, {39, 5}, {46, 5}, {47, 6}, {62, 6}, {126, 7},
		{127, 8}, {190, 8}, {254, 9}, {382, 10}, {1000, 13}, {1022, 13}, {1023, -1},
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
	heap := a.Reserve(256) // tiny heap: 64 class-0 objects
	mgr, _ := epoch.Open(a, eOff)
	al := New(a, mgr, meta, heap, 256, 1)
	h := al.Handle(0)
	n := 0
	for h.Alloc(2) != 0 {
		n++
		if n > 10000 {
			t.Fatal("allocation never exhausted a 2 KiB heap")
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

func TestHeaderPackingRoundTrip(t *testing.T) {
	f := func(ptr uint64, ctr uint64, e uint64) bool {
		ptr = ptr & (1<<44 - 1) << 1 // 2-word aligned, 45-bit range
		w := packHeader(ptr, ctr, e)
		return headerPtr(w) == ptr && headerCounter(w) == ctr&3 && headerEpoch16(w) == e&0xFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructEpochCounterMismatch(t *testing.T) {
	f := newFixture(t, 1)
	// Advance so that epoch 5 is in the past.
	for f.mgr.Current() < 6 {
		f.mgr.Advance()
	}
	next := packHeader(16, 1, 0x0005)
	inCLL := packHeader(32, 2, 0x0000) // different counter: torn
	if _, ok := f.al.reconstructEpoch(next, inCLL); ok {
		t.Fatal("mismatched counters must be reported as torn")
	}
	inCLL2 := packHeader(32, 1, 0x0000)
	e, ok := f.al.reconstructEpoch(next, inCLL2)
	if !ok || e != 5 {
		t.Fatalf("reconstructed epoch = %d/%v, want 5/true", e, ok)
	}
	// A header claiming a future epoch is garbage and must read as torn.
	future := packHeader(16, 1, 0x7FFF)
	if _, ok := f.al.reconstructEpoch(future, inCLL2); ok {
		t.Fatal("future epoch must be reported as torn")
	}
}

func TestTornHeaderRecoversFromInCLL(t *testing.T) {
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	p := h.Alloc(2)
	obj := p - headerWords
	// Manufacture a torn header: next has a bumped counter, inCLL is old.
	inCLL := f.arena.Load(obj + 1)
	f.arena.Store(obj, packHeader(12345*2, headerCounter(inCLL)+1, 0))
	if got := f.al.loadNext(obj); got != headerPtr(inCLL) {
		t.Fatalf("torn header recovered to %d, want inCLL ptr %d", got, headerPtr(inCLL))
	}
}

// Property: alternating churn with boundaries and crashes never loses or
// duplicates objects: free-list + limbo + live set always partitions the
// carved heap.
func TestPropertyNoLeakNoDup(t *testing.T) {
	fprop := func(seed int64) bool {
		f := newFixture(t, 1)
		h := f.al.Handle(0)
		rng := rand.New(rand.NewSource(seed))
		live := map[uint64]bool{}
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0:
				f.mgr.Advance()
			case 1, 2, 3:
				if len(live) > 0 {
					for p := range live {
						h.Free(p, 2)
						delete(live, p)
						break
					}
				}
			default:
				p := h.Alloc(2)
				if p == 0 {
					continue
				}
				if live[p] {
					return false // double allocation
				}
				live[p] = true
			}
		}
		// Account: every object carved from the wilderness is either
		// live, allocatable, or in limbo.
		carved := (f.arena.Load(f.al.wildOff+wBump) - f.al.heapOff) / classWords[0]
		total := uint64(len(live)) + uint64(f.al.FreeListLen(0, 0)) + uint64(f.al.LimboLen(0, 0))
		return carved == total
	}
	for seed := int64(0); seed < 10; seed++ {
		if !fprop(seed) {
			t.Fatalf("object accounting broken for seed %d", seed)
		}
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
		// Node payloads must not overlap each other or their headers.
		for off := n; off < n+40; off++ {
			if seen[off] {
				t.Fatalf("node word %d handed out twice", off)
			}
			seen[off] = true
		}
	}
}

func TestNodeHeaderSurvivesPayloadWrites(t *testing.T) {
	// The free-list header must live outside the node payload: writing
	// every payload word and then freeing/re-splicing must not corrupt
	// the list.
	f := newFixture(t, 1)
	h := f.al.Handle(0)
	nodes := make([]uint64, 50)
	for i := range nodes {
		nodes[i] = h.AllocNode()
		for w := uint64(0); w < 40; w++ {
			f.arena.Store(nodes[i]+w, ^uint64(0)) // worst-case garbage
		}
	}
	for _, n := range nodes {
		h.FreeNode(n)
	}
	f.mgr.Advance() // splice limbo
	// Every node must come back exactly once.
	back := map[uint64]int{}
	for {
		n := h.AllocNode()
		if n == 0 {
			break
		}
		back[n]++
	}
	for _, n := range nodes {
		if back[n] != 1 {
			t.Fatalf("node %d came back %d times", n, back[n])
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

// ---- the boundary splice: recorded tail vs the walk ----

// Handles sit side by side in Allocator.shards and each worker writes its
// own tails on every first free of an epoch: a handle must fill whole
// cache lines or neighbours false-share.
func TestHandleFillsWholeCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(Handle{}); sz%nvm.LineBytes != 0 {
		t.Fatalf("Handle is %d bytes, not a multiple of the %d-byte cache line: fix its padding", sz, nvm.LineBytes)
	}
}

// forgetTails makes the next splice find every limbo tail by walking, as
// every splice did before tails were recorded: the reference the O(1)
// splice is compared with.
func (al *Allocator) forgetTails() {
	for s := range al.shards {
		al.shards[s].tails = [totalClasses]uint64{}
	}
}

func (f *fixture) freeList(s, c int) []uint64 {
	var objs []uint64
	for obj := f.arena.Load(f.al.classOff(s, c) + chHead); obj != 0; obj = f.al.loadNext(obj) {
		objs = append(objs, obj)
	}
	return objs
}

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

var spliceTestClasses = []int{0, 3, 4, 5, 7, nodeClass} // 4, 32, 40, 48, 128 words and the node class

// classKey names one (shard, class) pair of free and limbo lists.
type classKey struct{ s, c int }

// sameFreeLists fails the test unless both fixtures hold the same free
// lists, block for block, empty limbo lists, and want(k) free blocks.
func sameFreeLists(t *testing.T, when string, fast, ref *fixture, want func(k classKey) int) {
	t.Helper()
	for s := 0; s < fast.al.Shards(); s++ {
		for _, c := range spliceTestClasses {
			if n := fast.al.LimboLen(s, c) + ref.al.LimboLen(s, c); n != 0 {
				t.Fatalf("%s: shard %d class %d: %d blocks left in limbo", when, s, c, n)
			}
			got, refList := fast.freeList(s, c), ref.freeList(s, c)
			if want := want(classKey{s, c}); len(got) != want {
				t.Fatalf("%s: shard %d class %d: %d free blocks, want %d", when, s, c, len(got), want)
			}
			if !slices.Equal(got, refList) {
				t.Fatalf("%s: shard %d class %d: free list %v, walking reference %v", when, s, c, got, refList)
			}
		}
	}
}

// Randomized multi-epoch churn over two handles and several classes: after
// every boundary the spliced free lists equal, block for block, those of a
// twin allocator that walks to every tail, limbo is empty, and free + live
// blocks account for everything carved.
func TestSpliceTailMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		fast, ref := newFixture(t, 2), newFixture(t, 2)
		rng := rand.New(rand.NewSource(seed))
		live, carved := map[classKey][]uint64{}, map[classKey]int{}
		boundaries := 0
		for step := 0; step < 4000; step++ {
			k := classKey{rng.Intn(2), spliceTestClasses[rng.Intn(len(spliceTestClasses))]}
			switch r := rng.Intn(40); {
			case r == 0:
				ref.al.forgetTails()
				fast.mgr.Advance()
				ref.mgr.Advance()
				boundaries++
				sameFreeLists(t, fmt.Sprintf("seed %d boundary %d", seed, boundaries), fast, ref,
					func(k classKey) int { return carved[k] - len(live[k]) })
			case r < 20 && len(live[k]) > 0:
				i := rng.Intn(len(live[k]))
				p := live[k][i]
				live[k] = append(live[k][:i], live[k][i+1:]...)
				fast.freeClass(k.s, k.c, p)
				ref.freeClass(k.s, k.c, p)
			default:
				if fast.al.FreeListLen(k.s, k.c) == 0 {
					carved[k] += int(refillCount(classSize(k.c)))
				}
				p, q := fast.allocClass(k.s, k.c), ref.allocClass(k.s, k.c)
				if p == 0 || p != q {
					t.Fatalf("seed %d step %d: alloc gave %d, walking reference %d", seed, step, p, q)
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
// in the epoch that is about to fail; 5 doomed frees and a doomed
// allocation. With walk set, every splice finds its tail by walking. It
// returns, per (shard, class), the blocks live as of the last commit and
// the number carved.
func doomedSplice(f *fixture, walk bool) (live map[classKey][]uint64, carved map[classKey]int) {
	live, carved = map[classKey][]uint64{}, map[classKey]int{}
	advance := func() {
		if walk {
			f.al.forgetTails()
		}
		f.mgr.Advance()
	}
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
		carved[k] = f.al.FreeListLen(k.s, k.c) + 30
		free(k, 10)
	})
	advance()
	each(func(k classKey) { free(k, 10) })
	advance()
	each(func(k classKey) {
		committed := live[k]
		free(k, 5)
		f.allocClass(k.s, k.c)
		live[k] = committed
	})
	return live, carved
}

// A crash forgets every recorded tail. The limbo that survives it — the
// frees of the last committed epoch, whose splice the failed epoch undoes,
// the tail's header still carrying that epoch's link into the free list —
// is spliced by New's walk, header repair included, onto the same free
// lists whether the run before the crash spliced by tail or by walk.
func TestCrashedLimboSplicesByWalk(t *testing.T) {
	policies := map[string]func() nvm.Policy{
		"all":     func() nvm.Policy { return nvm.PersistAll },
		"none":    func() nvm.Policy { return nvm.PersistNone },
		"evenodd": func() nvm.Policy { return nvm.EvenOddPolicy(0) },
		"random1": func() nvm.Policy { return nvm.RandomPolicy(0.5, 1) },
		"random2": func() nvm.Policy { return nvm.RandomPolicy(0.5, 2) },
	}
	for name, policy := range policies {
		fast, ref := newFixture(t, 2), newFixture(t, 2)
		live, carved := doomedSplice(fast, false)
		doomedSplice(ref, true)
		fast.arena.Crash(policy())
		ref.arena.Crash(policy())
		fast, ref = fast.rebuild(), ref.rebuild()
		sameFreeLists(t, name+": after reopen", fast, ref,
			func(k classKey) int { return carved[k] - len(live[k]) })

		// The recovered allocator records tails again.
		for k, ps := range live {
			for _, p := range ps {
				fast.freeClass(k.s, k.c, p)
				ref.freeClass(k.s, k.c, p)
			}
		}
		ref.al.forgetTails()
		fast.mgr.Advance()
		ref.mgr.Advance()
		sameFreeLists(t, name+": after the next boundary", fast, ref,
			func(k classKey) int { return carved[k] })
	}
}

// The trace splits a checkpoint's stop-the-world window into the flush
// (EvCheckpointPrepare's duration) and the boundary work — the OnAdvance
// callbacks, this package's splice among them, and the commit hooks
// (EvCheckpointCommit's argument). On a free-heavy run the two account for
// the window.
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
