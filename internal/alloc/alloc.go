// Package alloc implements the paper's durable memory allocator (§5): a
// set of per-size-class free sets that live entirely in NVM and are made
// crash-consistent with Fine-Grained Checkpointing and In-Cache-Line
// Logging, so that allocation and deallocation never issue a write-back or
// fence on the critical path.
//
// Three ideas from the paper:
//
//  1. The allocator is just another durable data structure (a set of free
//     chunks); checkpointing rolls it back to the start of a failed epoch.
//  2. The words that change are undo-logged in their own cache line
//     (InCLL), so allocating and freeing need no logging I/O.
//  3. Epoch-Based Reclamation: freed objects go to limbo and only become
//     allocatable at the next epoch boundary. An object can be allocated
//     only if it was free at the start of the epoch, so its *contents*
//     never need logging — if the epoch fails, the object returns to the
//     free set where its contents are irrelevant.
//
// Where it departs from the paper's §5.1: objects carry no header. Each
// (shard, class) keeps its free set and limbo as stacks of offset pages —
// one-line objects holding a link and 14 offsets, from a page pool shared
// under the wilderness lock — headed in its InCLL-logged head line. A free
// appends to the limbo's top page; a page is written only past its count
// at epoch start or when it was free at epoch start, and slots past a
// durable count are ignored. A refill is refused unless the pages the
// frees of all carved objects may need remain (reserve): a free never fails.
package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
)

// Size classes in words: powers of two up to a line, line multiples beyond
// it, and every refill starts on a line, so no object straddles lines
// needlessly. The classes above 128 serve core's out-of-place byte values,
// up to ~8 KiB; the intermediate multiples (40, 48, 192, 384, 768) keep
// internal fragmentation at 1.5×. A 256-byte value takes a 32-word object,
// a 300-byte one a 40-word object.
var classWords = [NumClasses]uint64{4, 8, 16, 32, 40, 48, 64, 128, 192, 256, 384, 512, 768, 1024}

// NumClasses is the number of size classes.
const NumClasses = 14

// Tree nodes are five whole lines whose layout assigns fields to specific
// lines: they are the 40-word class's objects, which a refill puts on line
// boundaries.
const (
	NodeClassWords = 40
	nodeClass      = 4
)

const (
	// Durable head line layout (one cache line) of every (shard, class),
	// of the wilderness and of the page pool:
	chFree  = 0 // free stack: page | count<<32
	chLimbo = 1 // limbo stack: page | count<<32 | tail/8<<36, tail its bottom page
	chRun   = 2 // carved, never-allocated run: next object | remaining<<32
	chUndo  = 3 // undo copies of the three words above, at epoch start
	chEpoch = 6 // epoch tag guarding the undo copies

	wBump   = 0 // wilderness line: first unused word of the heap region
	wCounts = 1 // client objects carved | pages carved<<32

	// An offset page: word 0 links to the page below (a stack word), words
	// 1..7 hold two offsets each. Pages are the page pool's objects.
	pageLink  = 0
	pageWords = nvm.WordsPerLine
	pageSlots = 2 * (pageWords - 1)

	refillObjects = 64   // objects carved from the wilderness per refill (small classes)
	refillBudget  = 4096 // words carved per refill for classes past a line
)

// A stack word names its top page and how many of that page's slots hold
// offsets; a page's link word names the page below it the same way. The
// limbo's word also carries its bottom page, which is line aligned, in its
// top 28 bits, so the boundary splice finds it without a walk.
func stackPage(w uint64) uint64         { return w & (1<<32 - 1) }
func stackCount(w uint64) uint64        { return w >> 32 & 15 }
func limboTail(w uint64) uint64         { return w >> 36 * pageWords }
func stackTop(w uint64) uint64          { return w & (1<<36 - 1) } // w without the tail
func limboWord(top, tail uint64) uint64 { return top | tail/pageWords<<36 }

func lineUp(w uint64) uint64 { return (w + nvm.WordsPerLine - 1) &^ (nvm.WordsPerLine - 1) }

// refillCount returns how many class-c objects one refill carves: 64 for
// the sub-line classes, fewer for the large value-heap classes so a refill
// never claims more than refillBudget words at once.
func refillCount(size uint64) uint64 {
	return max(4, min(refillObjects, refillBudget/size))
}

// Allocator manages a durable heap region. Each worker thread uses its own
// Handle (shard); shards have independent durable free sets, so the fast
// path is lock-free.
type Allocator struct {
	arena *nvm.Arena
	mgr   *epoch.Manager

	metaOff   uint64 // shard class-head lines, then wilderness and page pool lines
	heapOff   uint64 // first object word
	heapEnd   uint64
	wildOff   uint64 // wilderness head line
	poolOff   uint64 // page pool head line
	numShards int

	wildMu sync.Mutex // guards the wilderness and the page pool

	shards []Handle

	// limbo counts the freed objects awaiting the next boundary: a volatile
	// gauge, reset by the splice, not repaired by crash rollback.
	limbo atomic.Int64

	phases *obs.PhaseSet // sampled allocation-latency attribution; nil disables
}

// Instrument attaches the sampled latency-attribution timer: a 1-in-N
// sample of Alloc/AllocNode calls is timed end to end (free-set pop,
// refills and wilderness carving included) and charged to the alloc phase.
// nil detaches.
func (al *Allocator) Instrument(ph *obs.PhaseSet) { al.phases = ph }

// MetaWords returns the metadata region size (reserve target) for the
// given shard count.
func MetaWords(shards int) uint64 {
	return (uint64(shards)*NumClasses + 2) * nvm.WordsPerLine
}

// New creates (or, after a crash, re-attaches) an allocator whose metadata
// lives at metaOff (MetaWords(shards) words) and whose heap is
// [heapOff, heapOff+heapWords), below 2^31 words. Both regions must have
// been reserved by the caller at deterministic offsets so a recovering
// process finds them again. Recovery of the durable heads happens here.
func New(a *nvm.Arena, m *epoch.Manager, metaOff, heapOff, heapWords uint64, shards int) *Allocator {
	if shards <= 0 {
		panic("alloc: shards must be > 0")
	}
	if heapOff+heapWords > 1<<31 {
		panic("alloc: heap past 2^31 words")
	}
	al := &Allocator{
		arena:     a,
		mgr:       m,
		metaOff:   metaOff,
		heapOff:   lineUp(heapOff),
		heapEnd:   heapOff + heapWords,
		wildOff:   metaOff + uint64(shards)*NumClasses*nvm.WordsPerLine,
		numShards: shards,
	}
	al.poolOff = al.wildOff + nvm.WordsPerLine
	if a.Load(al.wildOff+wBump) == 0 {
		a.Store(al.wildOff+wBump, al.heapOff)
		a.Store(al.wildOff+chUndo+wBump, al.heapOff)
		a.Store(al.wildOff+chEpoch, m.Current())
	}
	// Recover every head line: class heads, wilderness and page pool.
	for off := metaOff; off <= al.poolOff; off += nvm.WordsPerLine {
		if m.IsFailed(a.Load(off + chEpoch)) {
			for w := uint64(0); w < chUndo; w++ {
				a.Store(off+w, a.Load(off+chUndo+w))
			}
			a.Store(off+chEpoch, m.Current())
		}
	}
	al.shards = make([]Handle, shards)
	for s := range al.shards {
		al.shards[s] = Handle{al: al, shard: s}
	}
	// Splice any surviving limbo: a failed epoch rolled its own boundary
	// splice back, and post-rollback limbo holds only objects freed in
	// committed epochs (EBR-safe). Recovery's flush persists it; a crash
	// before that flush re-runs the same splice.
	al.spliceLimbo(m.Current())
	m.OnAdvance(al.spliceLimbo)
	return al
}

func (al *Allocator) classOff(shard, class int) uint64 {
	return al.metaOff + uint64(shard*NumClasses+class)*nvm.WordsPerLine
}

// Handle returns shard i's allocation handle. Each concurrent worker must
// use a distinct handle; handles are not safe for concurrent use.
func (al *Allocator) Handle(i int) *Handle { return &al.shards[i] }

// Used reports the words ever carved from the wilderness: the heap's
// high-water mark. Recycling through the free sets keeps it flat, so a
// monotonically growing Used under a steady workload means leaked objects.
func (al *Allocator) Used() uint64 {
	al.wildMu.Lock()
	defer al.wildMu.Unlock()
	return al.arena.Load(al.wildOff+wBump) - al.heapOff
}

// LimboDepth reports how many freed objects are waiting in limbo for the
// next epoch boundary. O(1); see the limbo field's caveats.
func (al *Allocator) LimboDepth() int64 { return al.limbo.Load() }

// ClassFor returns the size class index for a payload of the given words,
// or -1 if the payload exceeds the largest class.
func ClassFor(payloadWords uint64) int {
	for c, w := range classWords {
		if payloadWords <= w {
			return c
		}
	}
	return -1
}

// spliceLimbo runs at every epoch boundary (world stopped): freed objects
// from the finished epoch become allocatable, per Epoch-Based Reclamation.
// The page pool goes first, so pages drained by the other splices wait in
// its fresh limbo. This runs in the *new* epoch, so the head-line mutations
// are InCLL-protected like any other epoch's first mutation.
func (al *Allocator) spliceLimbo(newEpoch uint64) {
	al.wildMu.Lock()
	defer al.wildMu.Unlock()
	al.splice(al.poolOff, newEpoch)
	for off := al.metaOff; off < al.wildOff; off += nvm.WordsPerLine {
		al.splice(off, newEpoch)
	}
	al.limbo.Store(0)
}

// splice hangs the free stack of head line off below its limbo's bottom
// page and makes the limbo the free stack: O(1). The limbo's top T and the
// free stack's top F merge in slots past their counts (T fills F, or F
// empties into T and drains), so only a stack's top page is ever partial.
// That bottom page's link is the one page word written outside the page
// rules: after a failed splice epoch the limbo word still names the page,
// so the recovery splice writes it again and no one follows the stale one.
func (al *Allocator) splice(off, cur uint64) {
	a := al.arena
	limbo := a.Load(off + chLimbo)
	if limbo == 0 {
		return
	}
	free, top, t := a.Load(off+chFree), stackPage(limbo), stackCount(limbo)
	var drained uint64
	if f := stackCount(free); free != 0 && t+f <= pageSlots {
		for i := uint64(1); i <= f; i++ {
			al.setSlot(top, t+i, al.slot(stackPage(free), i))
		}
		drained, free, t = stackPage(free), a.Load(stackPage(free)+pageLink), t+f
	} else if free != 0 {
		for i := uint64(1); i <= pageSlots-f; i++ {
			al.setSlot(stackPage(free), f+i, al.slot(top, t-pageSlots+f+i))
		}
		free, t = stackPage(free)|pageSlots<<32, t-pageSlots+f
	}
	a.Store(limboTail(limbo)+pageLink, free)
	al.logHeads(off, cur)
	a.Store(off+chFree, top|t<<32)
	a.Store(off+chLimbo, 0)
	if drained != 0 {
		al.pushPool(drained, cur)
	}
}

// logHeads performs the InCLLp-style first-touch logging of a head line
// for the given epoch: save undo copies, then tag. All the words share a
// cache line, so PCSO orders the writes for free.
func (al *Allocator) logHeads(off, cur uint64) {
	a := al.arena
	if a.Load(off+chEpoch) == cur {
		return
	}
	for w := uint64(0); w < chUndo; w++ {
		a.Store(off+chUndo+w, a.Load(off+w))
	}
	a.Store(off+chEpoch, cur)
}

// slot returns slot i (1..pageSlots) of page: the low half of word
// (i+1)/2 for odd i, its high half for even i.
func (al *Allocator) slot(page, i uint64) uint64 {
	return al.arena.Load(page+(i+1)/2) >> (32 * (1 - i%2)) & (1<<32 - 1)
}

// setSlot writes slot i, which lies past the page's count at epoch start.
// An odd slot takes its whole word: the even slot above it lies past the
// count too.
func (al *Allocator) setSlot(page, i, obj uint64) {
	w := page + (i+1)/2
	if i%2 == 0 {
		obj = al.arena.Load(w)&(1<<32-1) | obj<<32
	}
	al.arena.Store(w, obj)
}

// reserve returns the pages the pool must be able to supply once objs
// client objects are carved: with only top pages partial and a drained page
// idle until the boundary, a dry pool implies P ≤ (2k+1)(objs+k·stacks)/
// (k²-k-1) (DESIGN.md §4), so one more rules it out. ~1.3 words an object.
func (al *Allocator) reserve(objs uint64) uint64 {
	const k = pageSlots
	stacks := uint64(2*al.numShards*NumClasses + 2)
	return (2*k+1)*(objs+k*stacks)/(k*k-k-1) + 1
}

// wildPages returns how many whole lines the wilderness holds above word
// w: the pages it can still supply.
func (al *Allocator) wildPages(w uint64) uint64 {
	end := al.heapEnd &^ (nvm.WordsPerLine - 1)
	return (end - min(end, lineUp(w))) / nvm.WordsPerLine
}

// refill carves a run of class-c objects from the wilderness into the run
// word of head line off, and reports false when the heap cannot hold even
// one object beside the page reserve. No object is written.
func (al *Allocator) refill(off uint64, c int, cur uint64) bool {
	al.wildMu.Lock()
	defer al.wildMu.Unlock()
	a := al.arena
	size, counts := classWords[c], a.Load(al.wildOff+wCounts)
	for n := refillCount(size); n > 0; n /= 2 {
		bump := lineUp(a.Load(al.wildOff+wBump)) + size*n
		if bump <= al.heapEnd && counts>>32+al.wildPages(bump) >= al.reserve(stackPage(counts)+n) {
			al.carve(off, size, n, counts+n, cur)
			return true
		}
	}
	return false
}

// carve moves n objects of size words, from the wilderness's next line,
// into the run of head line off and records the carve counts. The caller
// holds wildMu.
func (al *Allocator) carve(off, size, n, counts, cur uint64) {
	a := al.arena
	bump := lineUp(a.Load(al.wildOff + wBump))
	al.logHeads(al.wildOff, cur)
	a.Store(al.wildOff+wBump, bump+size*n)
	a.Store(al.wildOff+wCounts, counts)
	al.logHeads(off, cur)
	a.Store(off+chRun, bump|n<<32)
}

// take pops the top offset of the free stack in head line off or, when
// that is empty, takes the next object of its carved run; 0 when both are
// empty. A popped page that empties is returned as drained: it held
// offsets at epoch start, which a failed epoch must find again, so it goes
// to the page pool's limbo.
func (al *Allocator) take(off, size, cur uint64) (obj, drained uint64) {
	a := al.arena
	if free := a.Load(off + chFree); free != 0 {
		page, n := stackPage(free), stackCount(free)
		obj = al.slot(page, n)
		al.logHeads(off, cur)
		if n > 1 {
			a.Store(off+chFree, free-1<<32)
			return obj, 0
		}
		a.Store(off+chFree, a.Load(page+pageLink))
		return obj, page
	}
	run := a.Load(off + chRun)
	if run>>32 == 0 {
		return 0, 0
	}
	al.logHeads(off, cur)
	a.Store(off+chRun, run+size-1<<32)
	return stackPage(run), 0
}

// appendLimbo appends obj to the top page of the limbo in head line off,
// and reports false when there is no top page or it is full.
func (al *Allocator) appendLimbo(off, obj, cur uint64) bool {
	limbo := al.arena.Load(off + chLimbo)
	n := stackCount(limbo)
	if limbo == 0 || n == pageSlots {
		return false
	}
	al.logHeads(off, cur)
	al.setSlot(stackPage(limbo), n+1, obj)
	al.arena.Store(off+chLimbo, limbo+1<<32)
	return true
}

// newLimboPage puts a new page holding obj on the limbo in head line off.
// The page is a pool object free at epoch start, so its whole line may be
// written; the pool page its pop drained goes to the pool's limbo — into
// this very page when off is the pool's. The caller holds wildMu.
func (al *Allocator) newLimboPage(off, obj, cur uint64) {
	a := al.arena
	page, drained := al.take(al.poolOff, pageWords, cur)
	if page == 0 { // the reserve leaves the wilderness a page then
		n := min(refillObjects, al.wildPages(a.Load(al.wildOff+wBump)))
		al.carve(al.poolOff, pageWords, n, a.Load(al.wildOff+wCounts)+n<<32, cur)
		if page, _ = al.take(al.poolOff, pageWords, cur); page == 0 {
			panic("alloc: page reserve exhausted")
		}
	}
	n := uint64(1)
	if drained != 0 && off == al.poolOff {
		obj, n, drained = obj|drained<<32, 2, 0
	}
	limbo := a.Load(off + chLimbo)
	tail := limboTail(limbo)
	if limbo == 0 {
		tail = page
	}
	a.Store(page+pageLink, stackTop(limbo))
	a.Store(page+1, obj)
	al.logHeads(off, cur)
	a.Store(off+chLimbo, limboWord(page|n<<32, tail))
	if drained != 0 {
		al.pushPool(drained, cur)
	}
}

// pushPool records a drained page in the page pool's limbo. The caller
// holds wildMu.
func (al *Allocator) pushPool(page, cur uint64) {
	if !al.appendLimbo(al.poolOff, page, cur) {
		al.newLimboPage(al.poolOff, page, cur)
	}
}

// Handle is a single shard's allocation interface. Not safe for concurrent
// use; give each worker its own handle.
type Handle struct {
	al    *Allocator
	shard int
}

// Alloc returns the offset of a fresh object whose first payloadWords
// words are its payload, or 0 if the heap is exhausted or the size exceeds
// the largest class. The fast path touches only cached NVM lines: no
// write-back, no fence.
func (h *Handle) Alloc(payloadWords uint64) uint64 {
	if c := ClassFor(payloadWords); c >= 0 {
		return h.allocFrom(c)
	}
	return 0
}

// AllocNode returns a cache-line-aligned node object of NodeClassWords
// words, or 0 when the heap is exhausted.
func (h *Handle) AllocNode() uint64 { return h.allocFrom(nodeClass) }

// FreeNode returns a node obtained from AllocNode to limbo.
func (h *Handle) FreeNode(obj uint64) { h.freeTo(nodeClass, obj) }

// allocFrom takes a class-c object from this shard's free stack or carved
// run, refilling the run when both are empty.
func (h *Handle) allocFrom(c int) uint64 {
	al := h.al
	if al.phases.Sampled(h.shard) {
		t0 := time.Now()
		defer func() { al.phases.Observe(obs.PhaseAlloc, time.Since(t0)) }()
	}
	cur := al.mgr.Current()
	off := al.classOff(h.shard, c)
	obj, drained := al.take(off, classWords[c], cur)
	if obj == 0 && al.refill(off, c, cur) {
		obj, _ = al.take(off, classWords[c], cur)
	}
	if drained != 0 {
		al.wildMu.Lock()
		al.pushPool(drained, cur)
		al.wildMu.Unlock()
	}
	return obj
}

// Free returns object obj to this shard's limbo; it becomes allocatable at
// the next epoch boundary (EBR). payloadWords must match the Alloc size
// (it selects the class).
func (h *Handle) Free(obj uint64, payloadWords uint64) {
	c := ClassFor(payloadWords)
	if c < 0 {
		panic(fmt.Sprintf("alloc: Free of oversized payload (%d words)", payloadWords))
	}
	h.freeTo(c, obj)
}

// freeTo appends obj to the class-c limbo's top page, or to a new page
// from the page pool when the top one is full: one page per fourteen
// frees takes the wilderness lock.
func (h *Handle) freeTo(c int, obj uint64) {
	al := h.al
	cur := al.mgr.Current()
	off := al.classOff(h.shard, c)
	if !al.appendLimbo(off, obj, cur) {
		al.wildMu.Lock()
		al.newLimboPage(off, obj, cur)
		al.wildMu.Unlock()
	}
	al.limbo.Add(1)
}
