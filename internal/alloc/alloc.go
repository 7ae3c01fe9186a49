// Package alloc implements the paper's durable memory allocator (§5): a
// set of per-size-class free lists that live entirely in NVM and are made
// crash-consistent with Fine-Grained Checkpointing and In-Cache-Line
// Logging, so that allocation and deallocation never issue a write-back or
// fence on the critical path.
//
// Three ideas from the paper:
//
//  1. The allocator is just another durable data structure (a set of free
//     chunks); checkpointing rolls it back to the start of a failed epoch.
//  2. Each object's header embeds an undo copy of its free-list next
//     pointer (InCLLn) in the same cache line as the pointer itself, so
//     pushing and popping objects needs no logging I/O.
//  3. Epoch-Based Reclamation: freed objects go to a limbo list and only
//     become allocatable at the next epoch boundary. An object can be
//     allocated only if it was free at the start of the epoch, so its
//     *contents* never need logging — if the epoch fails, the object
//     returns to the free list where its contents are irrelevant.
//
// The 16-byte header (§5.1) is the last two words of every object, so a
// payload starts at the object's base and a value of whole lines fills
// whole lines. Both header words pack a 44-bit pointer, a 2-bit wrap
// counter, and 16 bits of the 32-bit epoch (the `next` word carries the low
// half, the `nextInCLL` word the high half). Recovery reconstructs the
// epoch only if the two counters match; mismatched counters mean the crash
// interrupted the two-word update, in which case `next` is restored from
// `nextInCLL` unconditionally.
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

// Size classes in words, header included. Payload capacity is two words
// less. Objects are 16-byte aligned like the paper's allocations, and every
// refill starts on a cache-line boundary so objects never straddle lines
// unnecessarily (class sizes are powers of two up to a line, or multiples
// of a line beyond it). The classes above 128 serve the value heap's
// out-of-place byte values (core's PutBytes), up to ~8 KiB per value; the
// intermediate line multiples (192, 384, 768) keep worst-case internal
// fragmentation at 1.5× instead of 2× for the common KB-scale objects, and
// 40 and 48 do the same between 32 and 64, where a 256-byte value (32
// payload + 2 header = 34 words) would otherwise take a 64-word object.
var classWords = []uint64{4, 8, 16, 32, 40, 48, 64, 128, 192, 256, 384, 512, 768, 1024}

// NumClasses is the number of general size classes.
const NumClasses = 14

// The node class is special: tree nodes need a cache-line-aligned payload
// of five whole lines, because their layout assigns fields to specific
// lines, and the tree overwrites every payload word. Node objects are
// therefore NodeClassWords long, so the trailing header sits alone in a
// sixth line.
const (
	nodeClass      = NumClasses // per-shard head index of the node class
	totalClasses   = NumClasses + 1
	NodeClassWords = 48
)

func classSize(c int) uint64 {
	if c == nodeClass {
		return NodeClassWords
	}
	return classWords[c]
}

// header returns the offset of class-c object obj's header: its last two
// words.
func header(c int, obj uint64) uint64 { return obj + classSize(c) - headerWords }

const (
	headerWords = 2 // next + nextInCLL

	// Per-shard, per-class durable head line layout (one cache line):
	chHead      = 0 // allocatable list head (word offset of object, 0 = empty)
	chHeadInCLL = 1 // undo copy of chHead at epoch start
	chLimbo     = 2 // limbo list head (freed this epoch)
	chLimboInCL = 3 // undo copy of chLimbo at epoch start
	chEpoch     = 4 // epoch tag guarding the two InCLLs above

	// Wilderness header line layout:
	wBump      = 0 // first unused word of the heap region
	wBumpInCLL = 1 // undo copy at epoch start
	wEpoch     = 2 // epoch tag

	refillObjects = 64   // objects carved from the wilderness per refill (small classes)
	refillBudget  = 4096 // words carved per refill for classes past a line
)

// refillCount returns how many class-c objects one refill carves: 64 for
// the sub-line classes (the seed behavior), fewer for the large value-heap
// classes so a refill never claims more than refillBudget words at once.
func refillCount(size uint64) uint64 {
	n := uint64(refillBudget) / size
	if n > refillObjects {
		n = refillObjects
	}
	if n < 4 {
		n = 4
	}
	return n
}

// Allocator manages a durable heap region. Each worker thread uses its own
// Handle (shard); shards have independent durable free lists, so the fast
// path is lock-free with respect to other threads.
type Allocator struct {
	arena *nvm.Arena
	mgr   *epoch.Manager

	metaOff   uint64 // shard class-head lines, then wilderness line
	heapOff   uint64 // first object word
	heapEnd   uint64
	wildOff   uint64 // wilderness header line
	numShards int

	wildMu sync.Mutex

	shards []Handle

	// limbo tracks how many objects currently sit on limbo lists awaiting
	// the next epoch boundary. Volatile and advisory (a gauge for the
	// metrics surface): it is reset by the boundary splice, not repaired
	// by crash rollback.
	limbo atomic.Int64

	phases *obs.PhaseSet // sampled allocation-latency attribution; nil disables
}

// Instrument attaches the sampled latency-attribution timer: a 1-in-N
// sample of Alloc/AllocNode calls is timed end to end (free-list pop,
// refills and wilderness carving included) and charged to the alloc phase.
// nil detaches.
func (al *Allocator) Instrument(ph *obs.PhaseSet) { al.phases = ph }

// MetaWords returns the metadata region size (reserve target) for the
// given shard count.
func MetaWords(shards int) uint64 {
	return uint64(shards)*totalClasses*nvm.WordsPerLine + nvm.WordsPerLine
}

// New creates (or, after a crash, re-attaches) an allocator whose metadata
// lives at metaOff (MetaWords(shards) words) and whose heap is
// [heapOff, heapOff+heapWords). Both regions must have been reserved by
// the caller at deterministic offsets so a recovering process finds them
// again. Recovery of the durable heads happens here, eagerly; object
// headers are recovered lazily as they are popped.
func New(a *nvm.Arena, m *epoch.Manager, metaOff, heapOff, heapWords uint64, shards int) *Allocator {
	if shards <= 0 {
		panic("alloc: shards must be > 0")
	}
	al := &Allocator{
		arena:     a,
		mgr:       m,
		metaOff:   metaOff,
		heapOff:   (heapOff + nvm.WordsPerLine - 1) &^ (nvm.WordsPerLine - 1), // line align
		heapEnd:   heapOff + heapWords,
		wildOff:   metaOff + uint64(shards)*totalClasses*nvm.WordsPerLine,
		numShards: shards,
	}
	// Initialize or recover the wilderness bump pointer.
	if a.Load(al.wildOff+wBump) == 0 {
		a.Store(al.wildOff+wBump, al.heapOff)
		a.Store(al.wildOff+wBumpInCLL, al.heapOff)
		a.Store(al.wildOff+wEpoch, m.Current())
	} else if m.IsFailed(a.Load(al.wildOff + wEpoch)) {
		a.Store(al.wildOff+wBump, a.Load(al.wildOff+wBumpInCLL))
		a.Store(al.wildOff+wEpoch, m.Current())
	}
	// Initialize or recover every shard's class heads.
	al.shards = make([]Handle, shards)
	for s := 0; s < shards; s++ {
		al.shards[s] = Handle{al: al, shard: s}
		for c := 0; c < totalClasses; c++ {
			off := al.classOff(s, c)
			if m.IsFailed(a.Load(off + chEpoch)) {
				a.Store(off+chHead, a.Load(off+chHeadInCLL))
				a.Store(off+chLimbo, a.Load(off+chLimboInCL))
				a.Store(off+chEpoch, m.Current())
			}
		}
	}
	// Splice any surviving limbo into the free lists. The boundary splice
	// runs inside the successor epoch, so when that epoch fails its splice
	// is rolled back with everything else — without this recovery splice, a
	// crash-heavy history (every splice chased by a failed epoch) would
	// grow limbo without bound. Post-rollback limbo holds only blocks freed
	// in committed epochs, so making them allocatable is EBR-safe; the
	// mutations are tagged with the fresh execution epoch and persisted by
	// recovery's flush (extlog.Log.Recover), and a crash before that flush
	// simply re-runs the same splice.
	al.spliceLimbo(m.Current())
	m.OnAdvance(al.spliceLimbo)
	return al
}

func (al *Allocator) classOff(shard, class int) uint64 {
	return al.metaOff + uint64(shard*totalClasses+class)*nvm.WordsPerLine
}

// Handle returns shard i's allocation handle. Each concurrent worker must
// use a distinct handle; handles are not safe for concurrent use.
func (al *Allocator) Handle(i int) *Handle { return &al.shards[i] }

// Used reports the words ever carved from the wilderness: the heap's
// high-water mark. Recycling through the free lists keeps it flat, so a
// monotonically growing Used under a steady workload means leaked objects.
func (al *Allocator) Used() uint64 {
	al.wildMu.Lock()
	defer al.wildMu.Unlock()
	return al.arena.Load(al.wildOff+wBump) - al.heapOff
}

// LimboDepth reports how many freed objects are waiting on limbo lists
// for the next epoch boundary. O(1); see the limbo field's caveats.
func (al *Allocator) LimboDepth() int64 { return al.limbo.Load() }

// ClassFor returns the size class index for a payload of the given words,
// or -1 if the payload exceeds the largest class.
func ClassFor(payloadWords uint64) int {
	need := payloadWords + headerWords
	for c, w := range classWords {
		if need <= w {
			return c
		}
	}
	return -1
}

// spliceLimbo runs at every epoch boundary (world stopped): freed objects
// from the finished epoch become allocatable, per Epoch-Based Reclamation.
func (al *Allocator) spliceLimbo(newEpoch uint64) {
	a := al.arena
	for s := 0; s < al.numShards; s++ {
		for c := 0; c < totalClasses; c++ {
			off := al.classOff(s, c)
			limbo := a.Load(off + chLimbo)
			if limbo == 0 {
				continue
			}
			// Hang the allocatable list off the limbo tail. This runs in the
			// *new* epoch, so every mutation below is InCLL-protected like
			// any other epoch's first mutation.
			tail := al.limboTail(s, c, limbo)
			if head := a.Load(off + chHead); head != 0 {
				al.storeNext(c, tail, head, newEpoch)
			}
			al.logClassHeads(off, newEpoch)
			a.Store(off+chHead, limbo)
			a.Store(off+chLimbo, 0)
			al.shards[s].tails[c] = 0
		}
	}
	al.limbo.Store(0)
}

// limboTail returns the last block of shard s's class-c limbo list, whose
// head is limbo: the tail freeTo recorded, or — when this Allocator did not
// see the list begin, which is every list that survived a crash — the
// result of walking it, which also lazily repairs the headers the failed
// epoch tore.
func (al *Allocator) limboTail(s, c int, limbo uint64) uint64 {
	if tail := al.shards[s].tails[c]; tail != 0 {
		return tail
	}
	tail := limbo
	for next := al.loadNext(c, tail); next != 0; next = al.loadNext(c, tail) {
		tail = next
	}
	return tail
}

// logClassHeads performs the InCLLp-style first-touch logging of a class
// head line for the given epoch: save undo copies, then tag. All five
// words share a cache line, so PCSO orders the writes for free.
func (al *Allocator) logClassHeads(off, cur uint64) {
	a := al.arena
	if a.Load(off+chEpoch) == cur {
		return
	}
	a.Store(off+chHeadInCLL, a.Load(off+chHead))
	a.Store(off+chLimboInCL, a.Load(off+chLimbo))
	a.Store(off+chEpoch, cur)
}

// ---- object header encoding (§5.1) ----
//
// word: bits 0-1 wrap counter | bits 2-45 pointer (word offset >> 1) |
// bits 48-63 one half of the 32-bit epoch.

func packHeader(ptr uint64, counter uint64, epochHalf uint64) uint64 {
	return (counter & 3) | (ptr >> 1 << 2) | (epochHalf&0xFFFF)<<48
}

func headerPtr(w uint64) uint64     { return w >> 2 & (1<<44 - 1) << 1 }
func headerCounter(w uint64) uint64 { return w & 3 }
func headerEpoch16(w uint64) uint64 { return w >> 48 & 0xFFFF }

// reconstructEpoch rebuilds the 32-bit header epoch and widens it to the
// 64-bit epoch space by assuming it lies at most 2^32 epochs in the past —
// the paper makes the same 8-year assumption for its 32-bit indices.
func (al *Allocator) reconstructEpoch(next, inCLL uint64) (uint64, bool) {
	if headerCounter(next) != headerCounter(inCLL) {
		return 0, false // torn header update
	}
	e32 := headerEpoch16(next) | headerEpoch16(inCLL)<<16
	cur := al.mgr.Current()
	high := cur &^ 0xFFFFFFFF
	cand := high | e32
	if cand > cur {
		if cand < 1<<32 {
			// An epoch from the future can only be a torn or garbage
			// header; report it as torn so the caller restores from the
			// in-line undo copy.
			return 0, false
		}
		cand -= 1 << 32
		if cand > cur {
			return 0, false
		}
	}
	return cand, true
}

// loadNext reads class-c object obj's free-list next pointer, lazily
// recovering the header if it was last written in a failed or torn epoch.
func (al *Allocator) loadNext(c int, obj uint64) uint64 {
	a, hdr := al.arena, header(c, obj)
	next := a.Load(hdr)
	inCLL := a.Load(hdr + 1)
	e, ok := al.reconstructEpoch(next, inCLL)
	if !ok || al.mgr.IsFailed(e) {
		// Restore from the in-line undo copy. Persisting this repair is
		// not required: if we crash again the same repair reapplies.
		next = packHeader(headerPtr(inCLL), headerCounter(inCLL), headerEpoch16(next))
		a.Store(hdr, next)
	}
	return headerPtr(next)
}

// storeNext updates class-c object obj's next pointer in epoch cur, logging
// the old value into the same cache line on the first touch of the epoch.
func (al *Allocator) storeNext(c int, obj, next, cur uint64) {
	a, hdr := al.arena, header(c, obj)
	oldNext := a.Load(hdr)
	oldInCLL := a.Load(hdr + 1)
	e, ok := al.reconstructEpoch(oldNext, oldInCLL)
	if !ok || al.mgr.IsFailed(e) {
		oldNext = packHeader(headerPtr(oldInCLL), headerCounter(oldInCLL), headerEpoch16(oldNext))
		e, _ = al.reconstructEpoch(oldNext, oldInCLL)
	}
	if e != cur { // first touch this epoch
		ctr := (headerCounter(oldNext) + 1) & 3
		// Undo copy first, then the mutation — same line, PCSO-ordered.
		a.Store(hdr+1, packHeader(headerPtr(oldNext), ctr, cur>>16&0xFFFF))
		a.Store(hdr, packHeader(next, ctr, cur&0xFFFF))
		return
	}
	a.Store(hdr, packHeader(next, headerCounter(oldNext), cur&0xFFFF))
}

// refill carves refillObjects objects of class c from the wilderness and
// returns them as a linked list (head offset), or 0 if the heap is full.
func (al *Allocator) refill(c int, cur uint64) uint64 {
	al.wildMu.Lock()
	defer al.wildMu.Unlock()
	a := al.arena
	size := classSize(c)
	bump := a.Load(al.wildOff + wBump)
	// Start every refill run on a line boundary so line-sized-or-larger
	// objects are line-aligned and sub-line objects never straddle lines.
	bump = (bump + nvm.WordsPerLine - 1) &^ uint64(nvm.WordsPerLine-1)
	n := refillCount(size)
	if bump+size*n > al.heapEnd {
		n = (al.heapEnd - bump) / size
		if n == 0 {
			return 0
		}
	}
	// InCLL-log the bump pointer on first touch of this epoch.
	if a.Load(al.wildOff+wEpoch) != cur {
		a.Store(al.wildOff+wBumpInCLL, bump)
		a.Store(al.wildOff+wEpoch, cur)
	}
	a.Store(al.wildOff+wBump, bump+size*n)
	// Link the fresh objects. Their headers are zero (fresh NVM), so we
	// write full headers tagged with the current epoch; if this epoch
	// fails, the bump pointer rolls back and the contents are irrelevant.
	for i := uint64(0); i < n; i++ {
		obj := bump + i*size
		hdr := header(c, obj)
		next := uint64(0)
		if i+1 < n {
			next = obj + size
		}
		a.Store(hdr+1, packHeader(0, 0, cur>>16&0xFFFF))
		a.Store(hdr, packHeader(next, 0, cur&0xFFFF))
	}
	return bump
}

// Handle is a single shard's allocation interface. Not safe for concurrent
// use; give each worker its own handle.
type Handle struct {
	al    *Allocator
	shard int

	// tails[c] is the last block of the class-c limbo list — the first block
	// freed into it while it was empty — or 0 when unknown. Volatile: it
	// lets the boundary splice link tail → free list without walking the
	// epoch's frees with the world stopped. Written by the owning worker in
	// freeTo and by spliceLimbo; the epoch barrier orders the two.
	tails [totalClasses]uint64

	// Pad to whole cache lines (16 bytes of al and shard, then the tails):
	// handles sit side by side in Allocator.shards.
	_ [(64 - (16+8*totalClasses)%64) % 64]byte
}

// Alloc returns the offset of a fresh object whose first payloadWords
// words are its payload, or 0 if the heap is exhausted or the size exceeds
// the largest class. The fast path touches only cached NVM lines: no
// write-back, no fence.
func (h *Handle) Alloc(payloadWords uint64) uint64 {
	c := ClassFor(payloadWords)
	if c < 0 {
		return 0
	}
	if h.al.phases.Sampled(h.shard) {
		t0 := time.Now()
		defer func() { h.al.phases.Observe(obs.PhaseAlloc, time.Since(t0)) }()
	}
	return h.allocFrom(c)
}

// AllocNode returns a cache-line-aligned node object of NodeClassWords
// words, or 0 when the heap is exhausted.
func (h *Handle) AllocNode() uint64 {
	if h.al.phases.Sampled(h.shard) {
		t0 := time.Now()
		defer func() { h.al.phases.Observe(obs.PhaseAlloc, time.Since(t0)) }()
	}
	return h.allocFrom(nodeClass)
}

// FreeNode returns a node obtained from AllocNode to the limbo list.
func (h *Handle) FreeNode(obj uint64) { h.freeTo(nodeClass, obj) }

func (h *Handle) allocFrom(c int) uint64 {
	al, a := h.al, h.al.arena
	cur := al.mgr.Current()
	off := al.classOff(h.shard, c)
	head := a.Load(off + chHead)
	if head == 0 {
		head = al.refill(c, cur)
		if head == 0 {
			return 0
		}
		al.logClassHeads(off, cur)
		a.Store(off+chHead, head)
	}
	next := al.loadNext(c, head)
	al.logClassHeads(off, cur)
	a.Store(off+chHead, next)
	return head
}

// Free returns object obj to this shard's limbo list; it becomes
// allocatable at the next epoch boundary (EBR). payloadWords must match the
// Alloc size (it selects the class).
func (h *Handle) Free(obj uint64, payloadWords uint64) {
	c := ClassFor(payloadWords)
	if c < 0 {
		panic(fmt.Sprintf("alloc: Free of oversized payload (%d words)", payloadWords))
	}
	h.freeTo(c, obj)
}

func (h *Handle) freeTo(c int, obj uint64) {
	al, a := h.al, h.al.arena
	cur := al.mgr.Current()
	off := al.classOff(h.shard, c)
	al.logClassHeads(off, cur)
	limbo := a.Load(off + chLimbo)
	if limbo == 0 {
		h.tails[c] = obj
	}
	al.storeNext(c, obj, limbo, cur)
	a.Store(off+chLimbo, obj)
	al.limbo.Add(1)
}
