// Package nvm simulates a byte-addressable non-volatile memory behind a
// transient CPU cache, following the Persistent Cache Store Order (PCSO)
// model used by Cohen et al. (ASPLOS 2019).
//
// The simulation keeps two images of the same word-addressable arena:
//
//   - the volatile image, which mutators read and write (it plays the role
//     of "memory as seen through the cache hierarchy"), and
//   - the persistent image, which only receives whole 64-byte cache lines
//     when a line is written back (explicit writeback+fence, background
//     eviction, a global flush, or a simulated power failure).
//
// Because a line is always persisted atomically with its current contents,
// two writes to the same cache line can never be observed out of program
// order in the persistent image: this is exactly the PCSO "granularity"
// guarantee that In-Cache-Line Logging relies on. Writes to different lines
// persist in an arbitrary order unless an explicit Writeback/Fence pair
// intervenes, which is the PCSO "explicit flush" guarantee.
//
// A simulated power failure (Crash) persists an arbitrary, policy-chosen
// subset of the dirty lines and discards the cache, leaving the arena in a
// state that recovery code must repair — the same challenge real NVM
// software faces.
package nvm

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/obs"
)

const (
	// LineBytes is the size of a simulated cache line.
	LineBytes = 64
	// WordsPerLine is the number of 8-byte words per cache line.
	WordsPerLine = LineBytes / 8
)

// Per-line state flags.
const (
	lineDirty    uint32 = 1 << 0 // written since last persist
	linePending  uint32 = 1 << 1 // writeback issued, fence not yet executed
	lineFlushing uint32 = 1 << 2 // background eviction in progress
)

const (
	// sweepChunk is the unit of work of FlushAll's dirty-line sweep, in
	// summary words: one claim covers 4096 lines (256 KiB of arena), large
	// enough that the shared cursor is touched once per ~100 µs of copying
	// and small enough that the last chunks balance across cores. One
	// uint64 holds a bit per summary word of a chunk. It is also the unit
	// of the second-level dirty index (Arena.chunks).
	sweepChunk = 64

	// flushAloneLines is how many lines FlushAll's caller persists by itself
	// before it calls the other cores in. Waking an idle core costs a few
	// tens of microseconds; below ~0.3 ms of copying that hand-off is not
	// repaid, so small boundaries never leave the calling goroutine.
	flushAloneLines = 8192
)

// Config describes a simulated memory subsystem.
type Config struct {
	// Words is the arena size in 8-byte words. Rounded up to a whole
	// number of cache lines. Must be > 0.
	Words uint64

	// FenceDelay is an artificial latency injected on every Fence, which
	// models the NVM round-trip waited on by sfence. Used by the paper's
	// emulated-latency experiments (Figures 3 and 8).
	FenceDelay time.Duration

	// FlushBaseCost and FlushLineCost model the cost of a global cache
	// flush (wbinvd): FlushAll busy-waits FlushBaseCost plus FlushLineCost
	// per persisted line, in addition to the real cost of copying.
	FlushBaseCost time.Duration
	FlushLineCost time.Duration

	// DirtyCapacity, when > 0, bounds the number of dirty lines the
	// "cache" may hold: crossing the bound triggers background eviction
	// (write-back of a random dirty line), modelling the cache replacement
	// traffic that empties part of the cache during an epoch. 0 disables
	// eviction.
	DirtyCapacity int

	// Seed seeds the eviction victim selector. Crash policies carry their
	// own seeds.
	Seed int64
}

// Arena is a simulated NVM region. All durable state of the system lives in
// one Arena and is accessed with Load and Store at word granularity.
//
// Concurrency: Load and Store are safe for concurrent use. Writeback must
// only be applied to lines the calling goroutine has exclusive write access
// to, and the owner must not store to such a line again until a Fence has
// drained it: Fence persists every worker's pending lines, not just the
// caller's (a real sfence is per core), and marks each clean after copying
// it, so a store racing with another worker's Fence can land in a line
// that is then marked clean — lost to dirty tracking until the line is
// stored to again (ROADMAP item 2, per-worker fences). In this codebase
// Writeback is used on per-thread log buffers and on barrier-protected
// metadata, each fenced before its next store. FlushAll and Crash require
// all mutators to be quiescent, which the epoch manager's global barrier
// provides, and rely on it: they copy lines and clear line flags with plain
// loads and stores. FlushAll is internally parallel (see there).
//
// Dirty tracking is two summaries over the per-line flags. summary has one
// bit per line and is exact at every quiescent point: a line with non-zero
// flags has its bit set. chunks has one bit per sweepChunk summary words
// and is a superset hint: the first store to a clean line sets it, and
// only FlushAll and Crash — which leave nothing dirty — clear it, so a
// chunk emptied line by line (Fence, eviction) stays marked until the
// next boundary. FlushAll, Crash and DirtyLines visit marked chunks only,
// which makes a boundary's cost follow its dirty set, not the arena size.
type Arena struct {
	volatile []uint64        // the image mutators see (through the cache)
	persist  []uint64        // the NVM image
	flags    []uint32        // per-line state; atomic like volatile, plain only under quiescence
	summary  []atomic.Uint64 // one bit per line, grouped 64 lines/word
	chunks   []atomic.Uint64 // one bit per sweepChunk summary words
	nchunks  int

	lines      int
	evict      bool
	dirtyCount atomic.Int64
	capacity   int64

	cfg Config

	mu       sync.Mutex // guards slow paths: Fence, FlushAll, Crash, eviction scan cursor
	evictPos int
	rng      *rand.Rand

	// sweepNext is the first chunk no goroutine of the FlushAll in
	// progress has claimed yet. FlushAll's caller holds mu for the whole
	// sweep, so there is one sweep at a time.
	sweepNext atomic.Int64

	pendMu  sync.Mutex
	pending []int // lines with an outstanding writeback
	spare   []int // emptied pending buffer the next draining Fence swaps in

	reserveOff uint64 // bump cursor for static region carving

	phases *obs.PhaseSet // sampled fence-stall attribution; nil disables
	stats  Stats
}

// Instrument attaches the sampled latency-attribution timer: a 1-in-N sample
// of Fence calls is timed end to end (drain + modeled NVM round trip) and
// charged to the fence phase. nil detaches.
func (a *Arena) Instrument(ph *obs.PhaseSet) { a.phases = ph }

// New creates an arena of cfg.Words words, all zero, fully persistent
// (clean). Word offset 0 is reserved so that 0 can act as a null "pointer".
func New(cfg Config) *Arena {
	if cfg.Words == 0 {
		panic("nvm: Config.Words must be > 0")
	}
	words := (cfg.Words + WordsPerLine - 1) / WordsPerLine * WordsPerLine
	lines := int(words / WordsPerLine)
	nsummary := (lines + 63) / 64
	nchunks := (nsummary + sweepChunk - 1) / sweepChunk
	a := &Arena{
		volatile: make([]uint64, words),
		persist:  make([]uint64, words),
		flags:    make([]uint32, lines),
		summary:  make([]atomic.Uint64, nsummary),
		chunks:   make([]atomic.Uint64, (nchunks+63)/64),
		nchunks:  nchunks,
		lines:    lines,
		evict:    cfg.DirtyCapacity > 0,
		capacity: int64(cfg.DirtyCapacity),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		// Word 0 is never handed out: offset 0 means "null".
		reserveOff: WordsPerLine,
	}
	return a
}

// Size returns the arena size in words.
func (a *Arena) Size() uint64 { return uint64(len(a.volatile)) }

// Lines returns the number of cache lines in the arena.
func (a *Arena) Lines() int { return a.lines }

// Config returns the configuration the arena was built with.
func (a *Arena) Config() Config { return a.cfg }

// Reserve carves a static region of the given number of words out of the
// arena, aligned to a cache-line boundary, and returns its word offset.
// Region layout is decided deterministically at start-up (before any
// mutation), so a recovering process re-derives the same layout; Reserve is
// not itself crash-safe and must not be used after mutation begins.
func (a *Arena) Reserve(words uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	off := a.reserveOff
	n := (words + WordsPerLine - 1) / WordsPerLine * WordsPerLine
	if off+n > uint64(len(a.volatile)) {
		panic(fmt.Sprintf("nvm: arena exhausted: reserve %d words at %d of %d", n, off, len(a.volatile)))
	}
	a.reserveOff = off + n
	return off
}

// ResetReservations rewinds the Reserve cursor, modelling a process
// restart: a recovering process replays the same deterministic Reserve
// sequence and re-derives the same region offsets over the surviving
// arena contents.
func (a *Arena) ResetReservations() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserveOff = WordsPerLine
}

// Reserved reports how many words have been handed out by Reserve.
func (a *Arena) Reserved() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserveOff
}

// Load reads the word at off as the CPU would: through the cache, seeing
// the most recent store.
func (a *Arena) Load(off uint64) uint64 {
	return atomic.LoadUint64(&a.volatile[off])
}

// Store writes the word at off through the cache and marks its line dirty.
// The store becomes durable only when the line is persisted (writeback +
// fence, eviction, global flush, or a lucky crash).
func (a *Arena) Store(off uint64, v uint64) {
	line := int(off / WordsPerLine)
	if a.evict {
		// Mark before and after the data store so a concurrent background
		// eviction that overlaps this store always observes the line as
		// re-dirtied and discards its (possibly torn) copy.
		a.markDirty(line)
		atomic.StoreUint64(&a.volatile[off], v)
		a.markDirty(line)
		a.maybeEvict()
		return
	}
	atomic.StoreUint64(&a.volatile[off], v)
	a.markDirty(line)
}

func (a *Arena) markDirty(line int) {
	// Fast path: the line is already dirty. Safe only without background
	// eviction — eviction relies on the full mark-before/mark-after RMW
	// protocol to detect stores racing with a line copy; without eviction,
	// dirty bits are only cleared while mutators are quiesced (FlushAll,
	// Crash) or on lines the clearing thread owns (Fence).
	if !a.evict && atomic.LoadUint32(&a.flags[line])&lineDirty != 0 {
		return
	}
	old := orU32(&a.flags[line], lineDirty)
	if old&lineDirty == 0 {
		orU64(&a.summary[line>>6], 1<<(uint(line)&63))
		// Read-mostly: all but a chunk's first dirtying of an epoch find
		// the bit set and leave the shared index line unwritten.
		c := (line >> 6) / sweepChunk
		orU64(&a.chunks[c>>6], 1<<(uint(c)&63))
		if a.evict {
			a.dirtyCount.Add(1)
		}
	}
}

// orU32, orU64 and andU64 are CAS-loop replacements for the value-returning
// atomic Or/And intrinsics, which miscompile on go1.24.0 (the intrinsic's
// CMPXCHG loop clobbers a live register). The CAS loop lowers to the same
// LOCK CMPXCHG without tickling the bug.
func orU32(x *uint32, mask uint32) (old uint32) {
	for {
		old = atomic.LoadUint32(x)
		if old&mask == mask || atomic.CompareAndSwapUint32(x, old, old|mask) {
			return old
		}
	}
}

func orU64(x *atomic.Uint64, mask uint64) {
	for {
		old := x.Load()
		if old&mask == mask || x.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

func andU64(x *atomic.Uint64, mask uint64) {
	for {
		old := x.Load()
		if old&mask == old || x.CompareAndSwap(old, old&mask) {
			return
		}
	}
}

// CompareAndSwap atomically replaces the word at off with new if it
// currently holds old, marking the line dirty on success. Models a CPU
// CAS on an NVM-backed location.
func (a *Arena) CompareAndSwap(off uint64, old, new uint64) bool {
	line := int(off / WordsPerLine)
	if a.evict {
		a.markDirty(line)
		ok := atomic.CompareAndSwapUint64(&a.volatile[off], old, new)
		a.markDirty(line)
		return ok
	}
	if !atomic.CompareAndSwapUint64(&a.volatile[off], old, new) {
		return false
	}
	a.markDirty(line)
	return true
}

// Writeback initiates an asynchronous write-back (clwb/clflushopt) of the
// line containing off. The line's current contents are only guaranteed to
// be durable after a subsequent Fence.
func (a *Arena) Writeback(off uint64) {
	line := int(off / WordsPerLine)
	if atomic.LoadUint32(&a.flags[line])&lineDirty != 0 {
		if orU32(&a.flags[line], linePending)&linePending == 0 {
			a.pendMu.Lock()
			a.pending = append(a.pending, line)
			a.pendMu.Unlock()
		}
	}
	a.stats.Writebacks.Add(1)
}

// WritebackRange issues Writeback for every line overlapping
// [off, off+words).
func (a *Arena) WritebackRange(off, words uint64) {
	first := off / WordsPerLine
	last := (off + words - 1) / WordsPerLine
	for l := first; l <= last; l++ {
		a.Writeback(l * WordsPerLine)
	}
}

// Fence completes all outstanding writebacks (sfence): every line with a
// pending writeback is persisted with its current contents. Injects the
// configured FenceDelay to model the NVM round trip.
func (a *Arena) Fence() {
	if a.phases.Sampled(0) {
		t0 := time.Now()
		defer func() { a.phases.Observe(obs.PhaseFence, time.Since(t0)) }()
	}
	// The drained list and a spare trade places, so in the steady state
	// Writeback appends into a buffer that is already grown. pendMu and mu
	// are never held together here (Crash nests mu → pendMu).
	a.pendMu.Lock()
	pend := a.pending
	if len(pend) > 0 {
		a.pending, a.spare = a.spare[:0], nil
	}
	a.pendMu.Unlock()
	if len(pend) > 0 {
		a.mu.Lock()
		for _, line := range pend {
			if atomic.LoadUint32(&a.flags[line])&linePending != 0 {
				a.persistLineLocked(line)
			}
		}
		a.mu.Unlock()
		a.pendMu.Lock()
		if a.spare == nil {
			a.spare = pend[:0]
		}
		a.pendMu.Unlock()
	}
	a.stats.Fences.Add(1)
	spinWait(a.cfg.FenceDelay)
}

// persistLineLocked copies one line volatile→persist and marks it clean.
// Caller holds a.mu and guarantees no concurrent writer to this line.
func (a *Arena) persistLineLocked(line int) {
	base := uint64(line) * WordsPerLine
	for i := uint64(0); i < WordsPerLine; i++ {
		a.persist[base+i] = atomic.LoadUint64(&a.volatile[base+i])
	}
	// Summary bit first, flags second: a store that re-dirties the line after
	// the swap then sets both again, so a line with non-zero flags always has
	// its summary bit set — what lets FlushAll and Crash visit summary-marked
	// lines only.
	a.clearSummary(line)
	old := atomic.SwapUint32(&a.flags[line], 0)
	if old&lineDirty != 0 && a.evict {
		a.dirtyCount.Add(-1)
	}
	a.stats.LinesPersisted.Add(1)
}

func (a *Arena) clearSummary(line int) {
	andU64(&a.summary[line>>6], ^(uint64(1) << (uint(line) & 63)))
}

func andU32(x *uint32, mask uint32) {
	for {
		old := atomic.LoadUint32(x)
		if old&mask == old || atomic.CompareAndSwapUint32(x, old, old&mask) {
			return
		}
	}
}

// maybeEvict persists a victim dirty line when the dirty set exceeds the
// configured capacity, modelling cache replacement traffic.
func (a *Arena) maybeEvict() {
	if a.dirtyCount.Load() <= a.capacity {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dirtyCount.Load() <= a.capacity {
		return
	}
	// Scan from a moving cursor for a dirty line; cheap and avoids bias.
	for scanned := 0; scanned < len(a.summary); scanned++ {
		g := a.evictPos % len(a.summary)
		a.evictPos++
		w := a.summary[g].Load()
		if w == 0 {
			continue
		}
		line := g<<6 + bits.TrailingZeros64(w)
		if !atomic.CompareAndSwapUint32(&a.flags[line], lineDirty, lineFlushing) {
			continue // pending or being rewritten; pick another victim
		}
		base := uint64(line) * WordsPerLine
		var buf [WordsPerLine]uint64
		for i := uint64(0); i < WordsPerLine; i++ {
			buf[i] = atomic.LoadUint64(&a.volatile[base+i])
		}
		// Summary bit before flags, as in persistLineLocked.
		a.clearSummary(line)
		if atomic.CompareAndSwapUint32(&a.flags[line], lineFlushing, 0) {
			// No store raced with the copy: buf is a consistent
			// point-in-time snapshot of the line; persist it.
			copy(a.persist[base:base+WordsPerLine], buf[:])
			a.dirtyCount.Add(-1)
			a.stats.Evictions.Add(1)
			a.stats.LinesPersisted.Add(1)
		} else {
			// A writer re-dirtied the line mid-copy; drop the torn copy.
			orU64(&a.summary[line>>6], 1<<(uint(line)&63))
			andU32(&a.flags[line], ^lineFlushing)
		}
		return
	}
}

// nextMarked returns the first chunk at or after c that the index marks,
// or nchunks when there is none.
func (a *Arena) nextMarked(c int) int {
	for w := c >> 6; w < len(a.chunks); w++ {
		m := a.chunks[w].Load()
		if w == c>>6 {
			m &= ^uint64(0) << (uint(c) & 63)
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return a.nchunks
}

// marked yields the summary-word range [lo, hi) of every marked chunk, in
// ascending order: the ranges outside them hold no dirty line.
func (a *Arena) marked() iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		for c := a.nextMarked(0); c < a.nchunks; c = a.nextMarked(c + 1) {
			lo := c * sweepChunk
			if !yield(lo, min(lo+sweepChunk, len(a.summary))) {
				return
			}
		}
	}
}

// unmarkAll empties the chunk index. Only for callers that have just left
// every line clean with mutators quiescent (FlushAll, Crash).
func (a *Arena) unmarkAll() {
	for i := range a.chunks {
		if a.chunks[i].Load() != 0 {
			a.chunks[i].Store(0)
		}
	}
}

// dirty yields, in ascending order, every line among those of summary words
// [lo, hi) that is not yet persistent (dirty, pending or mid-eviction). It
// is the one dirty-set iterator: FlushAll's chunks, Crash and DirtyLines
// all range over it, one marked chunk at a time. A group's summary word is
// read once, so the loop body may clear the flags and summary bit of the
// line it was handed.
func (a *Arena) dirty(lo, hi int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for g := lo; g < hi; g++ {
			for w := a.summary[g].Load(); w != 0; w &= w - 1 {
				line := g<<6 + bits.TrailingZeros64(w)
				if atomic.LoadUint32(&a.flags[line]) != 0 && !yield(line) {
					return
				}
			}
		}
	}
}

// FlushAll persists every dirty or pending line (wbinvd at an epoch
// boundary) and returns the number of lines persisted. All mutators must be
// quiescent. Injects the configured flush cost model.
//
// wbinvd drains every core's cache at once, so the sweep uses every core:
// the arena is cut into chunks of sweepChunk summary words, and the caller
// and, for a large flush, up to GOMAXPROCS-1 helper goroutines claim the
// marked ones from a shared cursor. The helpers are started only after the caller has itself
// persisted flushAloneLines lines with chunks still unclaimed, and FlushAll
// returns only after every one of them has finished: the caller's next
// store (the epoch's commit record) is ordered after the last line copy.
func (a *Arena) FlushAll() int {
	a.mu.Lock()
	a.sweepNext.Store(0)
	n := a.flushChunks(flushAloneLines)
	if a.nextMarked(int(a.sweepNext.Load())) < a.nchunks {
		var (
			helpers sync.WaitGroup
			helped  atomic.Int64
		)
		for i := runtime.GOMAXPROCS(0) - 1; i > 0; i-- {
			helpers.Add(1)
			go func() {
				defer helpers.Done()
				helped.Add(int64(a.flushChunks(math.MaxInt)))
			}()
		}
		n += a.flushChunks(math.MaxInt)
		helpers.Wait() // every helper's copies happen before the return
		n += int(helped.Load())
	}
	a.unmarkAll()
	if a.evict {
		a.dirtyCount.Store(0)
	}
	a.mu.Unlock()
	a.stats.LinesPersisted.Add(int64(n))
	a.stats.GlobalFlushes.Add(1)
	spinWait(a.cfg.FlushBaseCost + time.Duration(n)*a.cfg.FlushLineCost)
	return n
}

// flushChunks claims marked chunks from the sweep cursor and persists
// their dirty lines until none is left or more than limit lines have been
// persisted, and returns that number of lines.
func (a *Arena) flushChunks(limit int) int {
	n := 0
	for n <= limit {
		cur := a.sweepNext.Load()
		c := a.nextMarked(int(cur))
		if c >= a.nchunks {
			break
		}
		if !a.sweepNext.CompareAndSwap(cur, int64(c)+1) {
			continue // another goroutine claimed past cur; look again
		}
		lo := c * sweepChunk
		n += a.flushChunk(lo, min(lo+sweepChunk, len(a.summary)))
	}
	return n
}

// flushChunk persists the dirty lines of summary words [lo, hi), at most
// sweepChunk of them, and marks them clean. Mutators are quiesced, so lines
// are bulk-copied without per-line atomics, and all of a chunk's copies
// come before any of its flag clears: an atomic store is a full barrier,
// and one between every two copies would hold the core to a single
// outstanding DRAM miss.
func (a *Arena) flushChunk(lo, hi int) int {
	n := 0
	var groups uint64 // bit i: summary word lo+i has a dirty line
	for line := range a.dirty(lo, hi) {
		base := line * WordsPerLine
		copy(a.persist[base:base+WordsPerLine], a.volatile[base:base+WordsPerLine])
		groups |= 1 << uint(line>>6-lo)
		n++
	}
	a.markClean(lo, groups)
	return n
}

// markClean clears the flags of every dirty line of the summary words
// lo+i whose bit i is set in groups, and those summary words. Its callers
// hold mutators quiescent, so the flags are cleared with plain stores, as
// the lines were copied: an atomic store is an XCHG, and one per line cost
// a small flush more than copying the line did.
func (a *Arena) markClean(lo int, groups uint64) {
	for ; groups != 0; groups &= groups - 1 {
		g := lo + bits.TrailingZeros64(groups)
		for line := range a.dirty(g, g+1) {
			a.flags[line] = 0
		}
		a.summary[g].Store(0)
	}
}

// Crash simulates a power failure: every line that is not yet persistent
// (dirty, pending, or mid-eviction) is either persisted whole or dropped,
// as decided by the policy; then the cache contents are lost and the
// volatile image is reloaded from the persistent image. All mutators must
// be quiescent. After Crash returns, the arena holds exactly the state a
// recovering process would find in NVM.
//
// A clean line has the same contents in both images by construction, so
// reloading means restoring just the lines the policy drops: the cost is
// linear in the dirty set, not in the arena.
func (a *Arena) Crash(p Policy) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var persisted, lost int64
	for lo, hi := range a.marked() {
		var groups uint64
		for line := range a.dirty(lo, hi) {
			base := line * WordsPerLine
			vol, per := a.volatile[base:base+WordsPerLine], a.persist[base:base+WordsPerLine]
			if p.Persist(line) {
				copy(per, vol)
				persisted++
			} else {
				copy(vol, per)
				lost++
			}
			groups |= 1 << uint(line>>6-lo)
		}
		a.markClean(lo, groups)
	}
	a.unmarkAll()
	a.stats.CrashLinesPersisted.Add(persisted)
	a.stats.CrashLinesLost.Add(lost)
	a.dirtyCount.Store(0)
	a.pendMu.Lock()
	a.pending = a.pending[:0]
	a.pendMu.Unlock()
	a.stats.Crashes.Add(1)
}

// DirtyLines returns the number of lines that are not yet persistent.
func (a *Arena) DirtyLines() int {
	n := 0
	for lo, hi := range a.marked() {
		for range a.dirty(lo, hi) {
			n++
		}
	}
	return n
}

// LoadPersisted reads the word at off from the persistent image. Test and
// validation helper; not part of the simulated machine's ISA.
func (a *Arena) LoadPersisted(off uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.persist[off]
}

// Stats returns the arena's counters.
func (a *Arena) Stats() *Stats { return &a.stats }

// spinWait busy-waits for roughly d. Sleeping is useless at the sub-
// microsecond scale the latency model needs, so we spin like the paper's
// emulation harness does.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}
