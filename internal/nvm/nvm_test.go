package nvm

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newArena(t testing.TB, words uint64) *Arena {
	t.Helper()
	return New(Config{Words: words})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 42)
	if got := a.Load(8); got != 42 {
		t.Fatalf("Load(8) = %d, want 42", got)
	}
	if got := a.LoadPersisted(8); got != 0 {
		t.Fatalf("LoadPersisted(8) = %d before any flush, want 0", got)
	}
}

func TestStoreIsNotDurableWithoutFlush(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(16, 7)
	a.Crash(PersistNone)
	if got := a.Load(16); got != 0 {
		t.Fatalf("after crash with PersistNone, Load(16) = %d, want 0", got)
	}
}

func TestWritebackWithoutFenceIsNotGuaranteed(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(16, 7)
	a.Writeback(16)
	// No fence: the line may be lost.
	a.Crash(PersistNone)
	if got := a.Load(16); got != 0 {
		t.Fatalf("writeback without fence must not guarantee durability; got %d", got)
	}
}

func TestWritebackFenceIsDurable(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(16, 7)
	a.Writeback(16)
	a.Fence()
	a.Crash(PersistNone)
	if got := a.Load(16); got != 7 {
		t.Fatalf("after writeback+fence+crash, Load(16) = %d, want 7", got)
	}
}

func TestFenceOnlyPersistsPendingLines(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(16, 7)  // line 2
	a.Store(128, 9) // line 16, never written back
	a.Writeback(16)
	a.Fence()
	a.Crash(PersistNone)
	if got := a.Load(16); got != 7 {
		t.Fatalf("fenced line lost: got %d, want 7", got)
	}
	if got := a.Load(128); got != 0 {
		t.Fatalf("unfenced line persisted spuriously: got %d, want 0", got)
	}
}

func TestFlushAllPersistsEverything(t *testing.T) {
	a := newArena(t, 4096)
	for i := uint64(8); i < 512; i += 8 {
		a.Store(i, i)
	}
	n := a.FlushAll()
	if n == 0 {
		t.Fatal("FlushAll persisted no lines")
	}
	a.Crash(PersistNone)
	for i := uint64(8); i < 512; i += 8 {
		if got := a.Load(i); got != i {
			t.Fatalf("Load(%d) = %d after FlushAll+crash, want %d", i, got, i)
		}
	}
	if d := a.DirtyLines(); d != 0 {
		t.Fatalf("DirtyLines() = %d after FlushAll, want 0", d)
	}
}

func TestSameLinePCSOOrdering(t *testing.T) {
	// Two writes to the same line: a crash can never expose the second
	// without the first, because lines persist whole.
	for seed := int64(0); seed < 64; seed++ {
		a := newArena(t, 1024)
		a.Store(8, 1) // first write, word 1 of line 1
		a.Store(9, 2) // second write, word 2 of line 1
		a.Crash(RandomPolicy(0.5, seed))
		w1, w2 := a.Load(8), a.Load(9)
		if w2 == 2 && w1 != 1 {
			t.Fatalf("seed %d: PCSO violated: second same-line write persisted without first (w1=%d w2=%d)", seed, w1, w2)
		}
		// Either both persisted or neither did.
		if (w1 == 1) != (w2 == 2) {
			t.Fatalf("seed %d: line persisted torn: w1=%d w2=%d", seed, w1, w2)
		}
	}
}

func TestCrossLineOrderIsArbitrary(t *testing.T) {
	// Writes to different lines may persist in either order; verify both
	// outcomes are reachable under some crash policy.
	sawFirstOnly, sawSecondOnly := false, false
	for seed := int64(0); seed < 256 && !(sawFirstOnly && sawSecondOnly); seed++ {
		a := newArena(t, 1024)
		a.Store(8, 1)  // line 1
		a.Store(16, 2) // line 2
		a.Crash(RandomPolicy(0.5, seed))
		first, second := a.Load(8) == 1, a.Load(16) == 2
		if first && !second {
			sawFirstOnly = true
		}
		if second && !first {
			sawSecondOnly = true
		}
	}
	if !sawFirstOnly || !sawSecondOnly {
		t.Fatalf("cross-line reordering not exercised: firstOnly=%v secondOnly=%v", sawFirstOnly, sawSecondOnly)
	}
}

func TestCrashPersistAllKeepsEverything(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 11)
	a.Store(80, 22)
	a.Crash(PersistAll)
	if a.Load(8) != 11 || a.Load(80) != 22 {
		t.Fatalf("PersistAll crash lost data: %d %d", a.Load(8), a.Load(80))
	}
}

func TestCrashResetsDirtyState(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 1)
	a.Crash(PersistNone)
	if d := a.DirtyLines(); d != 0 {
		t.Fatalf("DirtyLines() = %d after crash, want 0", d)
	}
	// A fresh store after the crash behaves normally.
	a.Store(8, 5)
	a.FlushAll()
	if got := a.LoadPersisted(8); got != 5 {
		t.Fatalf("post-crash store not durable after flush: %d", got)
	}
}

func TestEvenOddPolicyTearsAcrossLines(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 1)  // line 1 (odd)
	a.Store(16, 2) // line 2 (even)
	a.Crash(EvenOddPolicy(0))
	if a.Load(8) != 0 || a.Load(16) != 2 {
		t.Fatalf("EvenOddPolicy(0): got line1=%d line2=%d, want 0,2", a.Load(8), a.Load(16))
	}
}

func TestReserveAlignsAndAdvances(t *testing.T) {
	a := newArena(t, 4096)
	r1 := a.Reserve(3)
	r2 := a.Reserve(10)
	if r1%WordsPerLine != 0 || r2%WordsPerLine != 0 {
		t.Fatalf("regions not line-aligned: %d %d", r1, r2)
	}
	if r1 == 0 {
		t.Fatal("Reserve returned the null offset 0")
	}
	if r2 <= r1 {
		t.Fatalf("regions overlap: r1=%d r2=%d", r1, r2)
	}
	if r2-r1 < 3 {
		t.Fatalf("second region overlaps first: r1=%d r2=%d", r1, r2)
	}
}

func TestReserveExhaustionPanics(t *testing.T) {
	a := newArena(t, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arena exhaustion")
		}
	}()
	a.Reserve(1 << 20)
}

func TestDirtyCapacityTriggersEviction(t *testing.T) {
	a := New(Config{Words: 1 << 16, DirtyCapacity: 8})
	for i := uint64(0); i < 100; i++ {
		a.Store(i*WordsPerLine+WordsPerLine, uint64(i)+1)
	}
	if ev := a.Stats().Evictions.Load(); ev == 0 {
		t.Fatal("expected background evictions with DirtyCapacity=8")
	}
	// Evicted lines are durable even if the crash drops everything else.
	a.Crash(PersistNone)
	persisted := 0
	for i := uint64(0); i < 100; i++ {
		if a.Load(i*WordsPerLine+WordsPerLine) == uint64(i)+1 {
			persisted++
		}
	}
	if persisted == 0 {
		t.Fatal("no evicted line survived the crash")
	}
}

func TestEvictionKeepsLineConsistent(t *testing.T) {
	// Hammer one line from two goroutines while eviction churns; the
	// persistent image must always hold a prefix-consistent pair (the
	// same-line PCSO guarantee) — w2 set implies w1 set to a value at
	// least as new.
	a := New(Config{Words: 1 << 16, DirtyCapacity: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Same line: word 8 then word 9, monotonically.
			a.Store(8, i)
			a.Store(9, i)
		}
	}()
	// Churn other lines to force evictions of line 1.
	for i := uint64(0); i < 5000; i++ {
		a.Store((i%500)*WordsPerLine+2*WordsPerLine, i)
	}
	close(stop)
	wg.Wait()
	a.mu.Lock()
	w1, w2 := a.persist[8], a.persist[9]
	a.mu.Unlock()
	if w2 > w1 {
		t.Fatalf("torn line persisted: w1=%d w2=%d (w2 written after w1 each round)", w1, w2)
	}
}

func TestFenceDelayIsInjected(t *testing.T) {
	a := New(Config{Words: 1024, FenceDelay: 200 * time.Microsecond})
	a.Store(8, 1)
	a.Writeback(8)
	t0 := time.Now()
	a.Fence()
	if el := time.Since(t0); el < 150*time.Microsecond {
		t.Fatalf("fence returned in %v, want >= ~200µs", el)
	}
}

func TestFlushCostModelIsInjected(t *testing.T) {
	a := New(Config{Words: 1024, FlushBaseCost: 300 * time.Microsecond})
	a.Store(8, 1)
	t0 := time.Now()
	a.FlushAll()
	if el := time.Since(t0); el < 200*time.Microsecond {
		t.Fatalf("FlushAll returned in %v, want >= ~300µs", el)
	}
}

func TestStatsCounters(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 1)
	a.Writeback(8)
	a.Fence()
	a.FlushAll()
	s := a.Stats().Snapshot()
	if s.Writebacks != 1 || s.Fences != 1 || s.GlobalFlushes != 1 {
		t.Fatalf("unexpected stats: %v", s)
	}
	if s.LinesPersisted == 0 {
		t.Fatalf("no lines persisted recorded: %v", s)
	}
}

func TestStatsSnapshotSub(t *testing.T) {
	a := StatsSnapshot{Writebacks: 5, Fences: 3}
	b := StatsSnapshot{Writebacks: 2, Fences: 1}
	d := a.Sub(b)
	if d.Writebacks != 3 || d.Fences != 2 {
		t.Fatalf("Sub = %+v", d)
	}
}

// Property: after any sequence of stores and a FlushAll, the persistent
// image equals the volatile image on every touched word.
func TestPropertyFlushAllMakesImagesEqual(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		a := New(Config{Words: 1 << 12})
		rng := rand.New(rand.NewSource(seed))
		offs := make([]uint64, 0, n)
		for i := 0; i < int(n); i++ {
			off := uint64(rng.Intn(1<<12-8)) + 8
			a.Store(off, rng.Uint64())
			offs = append(offs, off)
		}
		a.FlushAll()
		for _, off := range offs {
			if a.Load(off) != a.LoadPersisted(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a crash never invents values — every persisted word was stored
// at some point (here: value equals offset tag or zero).
func TestPropertyCrashNeverInventsValues(t *testing.T) {
	f := func(seed int64, n uint8, p float64) bool {
		if p < 0 || p > 1 {
			p = 0.5
		}
		a := New(Config{Words: 1 << 12})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			off := uint64(rng.Intn(1<<12-8)) + 8
			a.Store(off, off) // tag each word with its offset
		}
		a.Crash(RandomPolicy(p, seed))
		for off := uint64(0); off < 1<<12; off++ {
			v := a.Load(off)
			if v != 0 && v != off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStoresDistinctLines(t *testing.T) {
	a := New(Config{Words: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 1000 * WordsPerLine
			for i := uint64(0); i < 1000; i++ {
				a.Store(base+i*WordsPerLine+WordsPerLine, i+1)
			}
		}(g)
	}
	wg.Wait()
	a.FlushAll()
	for g := 0; g < 8; g++ {
		base := uint64(g) * 1000 * WordsPerLine
		for i := uint64(0); i < 1000; i++ {
			if got := a.LoadPersisted(base + i*WordsPerLine + WordsPerLine); got != i+1 {
				t.Fatalf("g=%d i=%d got %d", g, i, got)
			}
		}
	}
}

func TestCompareAndSwap(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 5)
	if a.CompareAndSwap(8, 4, 9) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !a.CompareAndSwap(8, 5, 9) {
		t.Fatal("CAS failed with correct expected value")
	}
	if a.Load(8) != 9 {
		t.Fatalf("Load = %d after CAS", a.Load(8))
	}
	// CAS dirties the line like a store.
	a.FlushAll()
	if a.LoadPersisted(8) != 9 {
		t.Fatal("CAS result not flushed")
	}
}

func TestWritebackRangeCoversAllLines(t *testing.T) {
	a := newArena(t, 4096)
	// Dirty a 5-line span, write back the whole range, fence, crash.
	for off := uint64(8); off < 8+5*WordsPerLine; off++ {
		a.Store(off, off)
	}
	a.WritebackRange(8, 5*WordsPerLine)
	a.Fence()
	a.Crash(PersistNone)
	for off := uint64(8); off < 8+5*WordsPerLine; off++ {
		if a.Load(off) != off {
			t.Fatalf("word %d lost after WritebackRange+Fence", off)
		}
	}
}

func TestFenceIsCheapWhenNothingPending(t *testing.T) {
	a := newArena(t, 1<<20)
	for i := uint64(0); i < 1000; i++ {
		a.Store(i*WordsPerLine+8, i) // dirty many lines, none pending
	}
	t0 := time.Now()
	for i := 0; i < 10000; i++ {
		a.Fence()
	}
	if el := time.Since(t0); el > 500*time.Millisecond {
		t.Fatalf("10k empty fences took %v; Fence must not scan the arena", el)
	}
}

func TestPendingListSurvivesInterleavedStores(t *testing.T) {
	a := newArena(t, 1024)
	a.Store(8, 1)
	a.Writeback(8)
	a.Store(16, 2) // different line, not written back
	a.Store(9, 3)  // same line as the pending writeback, after the writeback
	a.Fence()
	a.Crash(PersistNone)
	// The fenced line persists with its latest contents (PCSO: the fence
	// completes the write-back of whatever the line holds).
	if a.Load(8) != 1 || a.Load(9) != 3 {
		t.Fatalf("fenced line = %d,%d want 1,3", a.Load(8), a.Load(9))
	}
	if a.Load(16) != 0 {
		t.Fatal("unfenced line persisted spuriously")
	}
}

// imagesDiffer returns the first word at which the volatile and persistent
// images differ, or -1.
func imagesDiffer(a *Arena) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.volatile {
		if a.volatile[i] != a.persist[i] {
			return i
		}
	}
	return -1
}

// dirtyRegions stores into random runs of up to lines lines in all: dense
// runs touch every line, sparse runs one line in stride.
func dirtyRegions(a *Arena, rng *rand.Rand, lines int) {
	for lines > 0 {
		run := 1 + rng.Intn(lines)
		stride := 1
		if rng.Intn(2) == 0 {
			stride = 1 + rng.Intn(97) // sparse: at most one line per stride
		}
		start := 1 + rng.Intn(a.Lines()-1)
		for i := 0; i < run; i++ {
			line := (start + i*stride) % a.Lines()
			if line == 0 {
				continue // word 0's line is never handed out
			}
			a.Store(uint64(line)*WordsPerLine+uint64(rng.Intn(WordsPerLine)), rng.Uint64()|1)
		}
		lines -= run
	}
}

// Property: whatever the dirty set — sparse or dense, on either side of
// the size at which FlushAll calls helper goroutines in — the flush
// persists exactly the dirty lines, once, and leaves the images equal.
// Meant to run at -cpu 1,2,4 and under -race.
func TestPropertyFlushAllSweep(t *testing.T) {
	sizes := []int{0, 1, 63, flushAloneLines / 2, flushAloneLines, flushAloneLines + 1, 3 * flushAloneLines, 6 * flushAloneLines}
	for _, capacity := range []int{0, 1 << 30} { // without and with dirty-set accounting
		a := New(Config{Words: 8 * flushAloneLines * WordsPerLine, DirtyCapacity: capacity})
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		for round, size := range append(sizes, sizes...) {
			dirtyRegions(a, rng, size)
			// A pending-but-unfenced line is flushed like any dirty one.
			pend := uint64(1+rng.Intn(a.Lines()-1)) * WordsPerLine
			a.Store(pend, uint64(round)+2)
			a.Writeback(pend)

			want := a.DirtyLines()
			before := a.Stats().LinesPersisted.Load()
			got := a.FlushAll()
			if got != want {
				t.Fatalf("capacity %d size %d: FlushAll() = %d, DirtyLines() before = %d", capacity, size, got, want)
			}
			if d := a.Stats().LinesPersisted.Load() - before; d != int64(want) {
				t.Fatalf("capacity %d size %d: LinesPersisted moved by %d, want %d", capacity, size, d, want)
			}
			if d := a.DirtyLines(); d != 0 {
				t.Fatalf("capacity %d size %d: %d lines dirty after FlushAll", capacity, size, d)
			}
			if w := imagesDiffer(a); w >= 0 {
				t.Fatalf("capacity %d size %d: images differ at word %d after FlushAll", capacity, size, w)
			}
			if a.LoadPersisted(pend) != uint64(round)+2 {
				t.Fatalf("capacity %d size %d: pending line not flushed", capacity, size)
			}
			if c := a.dirtyCount.Load(); c != 0 {
				t.Fatalf("capacity %d size %d: dirtyCount = %d after FlushAll", capacity, size, c)
			}
			a.Fence() // drains the stale pending entry; must persist nothing
			if d := a.Stats().LinesPersisted.Load() - before; d != int64(want) {
				t.Fatalf("capacity %d size %d: Fence after FlushAll persisted a line", capacity, size)
			}
		}
	}
}

// A flush of at most flushAloneLines lines is the caller's alone, however
// the lines are spread over the arena and however many cores are idle.
func TestSmallFlushStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := New(Config{Words: 8 * flushAloneLines * WordsPerLine})
	stride := a.Lines() / flushAloneLines
	for round := 0; round < 50; round++ {
		for i := 1; i <= flushAloneLines; i++ { // line 0 is never handed out
			a.Store(uint64(i*stride-1)*WordsPerLine, uint64(round)+1)
		}
		before := runtime.NumGoroutine()
		n := a.FlushAll()
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("round %d: %d goroutines before a %d-line flush, %d after", round, before, n, after)
		}
		if n != flushAloneLines {
			t.Fatalf("round %d: flushed %d lines, want %d", round, n, flushAloneLines)
		}
	}
}

// Crash restores only the lines its policy drops. Pin that this equals a
// reload of the whole image: afterwards the two images agree word for
// word, and they hold what a full scan of the line flags would have left.
func TestCrashLeavesImagesEqual(t *testing.T) {
	policies := map[string]func() Policy{
		"all":     func() Policy { return PersistAll },
		"none":    func() Policy { return PersistNone },
		"random":  func() Policy { return RandomPolicy(0.5, 42) },
		"evenodd": func() Policy { return EvenOddPolicy(1) },
	}
	for name, policy := range policies {
		for _, capacity := range []int{0, 64} {
			a := New(Config{Words: 1 << 15, DirtyCapacity: capacity, Seed: 3})
			rng := rand.New(rand.NewSource(9))
			for round := 0; round < 4; round++ {
				dirtyRegions(a, rng, 600)
				for i := 0; i < 20; i++ { // some lines pending, some fenced
					off := uint64(1+rng.Intn(a.Lines()-1)) * WordsPerLine
					a.Store(off, rng.Uint64()|1)
					a.Writeback(off)
					if i%4 == 0 {
						a.Fence()
					}
				}
				if round == 1 {
					a.FlushAll() // crash right after a boundary, too
				}
				// Reference: the full scan over every line's flags.
				want := append([]uint64(nil), a.persist...)
				ref := policy()
				lost := 0
				for line := range a.flags {
					if a.flags[line] == 0 {
						continue
					}
					if ref.Persist(line) {
						copy(want[line*WordsPerLine:(line+1)*WordsPerLine], a.volatile[line*WordsPerLine:])
					} else {
						lost++
					}
				}
				lostBefore := a.Stats().CrashLinesLost.Load()
				a.Crash(policy())
				if w := imagesDiffer(a); w >= 0 {
					t.Fatalf("%s/capacity %d round %d: images differ at word %d after Crash", name, capacity, round, w)
				}
				for i, v := range want {
					if a.persist[i] != v {
						t.Fatalf("%s/capacity %d round %d: word %d = %#x after Crash, full-scan reference %#x", name, capacity, round, i, a.persist[i], v)
					}
				}
				if d := a.Stats().CrashLinesLost.Load() - lostBefore; d != int64(lost) {
					t.Fatalf("%s/capacity %d round %d: CrashLinesLost moved by %d, want %d", name, capacity, round, d, lost)
				}
				if d := a.DirtyLines(); d != 0 || a.dirtyCount.Load() != 0 {
					t.Fatalf("%s/capacity %d round %d: DirtyLines %d, dirtyCount %d after Crash", name, capacity, round, d, a.dirtyCount.Load())
				}
			}
		}
	}
}

// TestFenceReusesPendingBuffer: a Fence hands its drained writeback list
// back instead of dropping it, so a steady writeback/fence cycle does not
// regrow the list from nothing each time.
func TestFenceReusesPendingBuffer(t *testing.T) {
	a := New(Config{Words: 1 << 10})
	cycle := func() {
		for off := uint64(WordsPerLine); off < 9*WordsPerLine; off += WordsPerLine {
			a.Store(off, a.Load(off)+1)
			a.Writeback(off)
		}
		a.Fence()
	}
	before := a.Stats().LinesPersisted.Load()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%.0f allocations per writeback/fence cycle, want 0", allocs)
	}
	if got := a.Stats().LinesPersisted.Load() - before; got != 101*8 {
		t.Fatalf("persisted %d lines over 101 cycles of 8, want %d", got, 101*8)
	}
	if a.DirtyLines() != 0 {
		t.Fatalf("%d dirty lines after the last fence", a.DirtyLines())
	}
}

// driveChunkIndex runs a seeded single-goroutine mix of every operation
// that sets or clears dirty state — Store, CompareAndSwap, Writeback,
// Fence, eviction when capacity > 0, FlushAll and Crash under a
// SubsetPolicy — over an arena of 16 chunks in which most stores land in
// three of them, and calls check at every quiescent point. It uses the
// public surface only, so the same sequence can be replayed on another
// revision of the package.
func driveChunkIndex(seed int64, capacity int, check func(a *Arena, step int)) *Arena {
	a := New(Config{Words: 16 * sweepChunk * 64 * WordsPerLine, DirtyCapacity: capacity, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	chunkLines := sweepChunk * 64
	hot := [3]int{rng.Intn(16), rng.Intn(16), rng.Intn(16)}
	var recent []int
	pick := func() int {
		line := rng.Intn(a.Lines())
		if rng.Intn(8) != 0 {
			line = hot[rng.Intn(len(hot))]*chunkLines + rng.Intn(chunkLines)
		}
		if line == 0 {
			line = 1 // word 0's line is never handed out
		}
		recent = append(recent, line)
		return line
	}
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			a.Store(uint64(pick())*WordsPerLine+uint64(rng.Intn(WordsPerLine)), rng.Uint64()|1)
		case r < 70:
			off := uint64(pick())*WordsPerLine + uint64(rng.Intn(WordsPerLine))
			old := a.Load(off)
			if rng.Intn(3) == 0 {
				old++ // a failing CAS dirties nothing without eviction
			}
			a.CompareAndSwap(off, old, rng.Uint64()|1)
		case r < 85:
			if len(recent) > 0 {
				a.Writeback(uint64(recent[rng.Intn(len(recent))]) * WordsPerLine)
			}
		case r < 95:
			a.Fence()
		case r < 98:
			check(a, step)
			a.FlushAll()
			check(a, step)
			recent = recent[:0]
		default:
			check(a, step)
			lines := recent[max(0, len(recent)-10):]
			a.Crash(SubsetPolicy(lines, rng.Uint64(), rng.Intn(2) == 0))
			check(a, step)
			recent = recent[:0]
		}
		if step%64 == 0 {
			check(a, step)
		}
	}
	return a
}

// Property: the chunk index never hides a dirty line. At every quiescent
// point of a random operation sequence the walk over marked chunks yields
// exactly the lines a walk over the whole summary yields; a FlushAll or a
// Crash leaves nothing dirty and nothing marked; and the lines persisted
// by the whole sequence are those the flat summary walk persisted for the
// same seed (counts recorded at the parent of the change that added the
// index, from this same driver).
func TestPropertyChunkIndexMatchesFullWalk(t *testing.T) {
	parent := map[int]map[int64]int64{ // capacity → seed → LinesPersisted
		0:  {1: 2498, 2: 2456, 3: 2466, 4: 2557},
		48: {1: 2752, 2: 2653, 3: 2636, 4: 2736},
	}
	for capacity, seeds := range parent {
		for seed, want := range seeds {
			flushes := int64(0)
			a := driveChunkIndex(seed, capacity, func(a *Arena, step int) {
				var full, indexed []int
				for line := range a.dirty(0, len(a.summary)) {
					full = append(full, line)
				}
				for lo, hi := range a.marked() {
					for line := range a.dirty(lo, hi) {
						indexed = append(indexed, line)
					}
				}
				if !slices.Equal(indexed, full) {
					t.Fatalf("capacity %d seed %d step %d: indexed walk yields %d lines, full walk %d", capacity, seed, step, len(indexed), len(full))
				}
				if a.DirtyLines() != len(full) {
					t.Fatalf("capacity %d seed %d step %d: DirtyLines() = %d, full walk %d", capacity, seed, step, a.DirtyLines(), len(full))
				}
				s := a.Stats()
				if boundary := s.GlobalFlushes.Load() + s.Crashes.Load(); boundary != flushes {
					flushes = boundary // first check after a FlushAll or Crash
					if len(full) != 0 || a.nextMarked(0) != a.nchunks {
						t.Fatalf("capacity %d seed %d step %d: %d lines dirty, first marked chunk %d of %d after a boundary", capacity, seed, step, len(full), a.nextMarked(0), a.nchunks)
					}
				}
			})
			if got := a.Stats().LinesPersisted.Load(); got != want {
				t.Errorf("capacity %d seed %d: LinesPersisted = %d, parent %d", capacity, seed, got, want)
			}
		}
	}
}

// BenchmarkFlushAllEmpty is the floor every checkpoint pays: a boundary
// with nothing dirty in the benchmark workloads' 2^24-word arena.
func BenchmarkFlushAllEmpty(b *testing.B) {
	a := New(Config{Words: 1 << 24})
	for b.Loop() {
		a.FlushAll()
	}
}

// BenchmarkFlushAllSparse flushes 1000 lines scattered over the same
// arena: a small epoch's dirty set, found through the chunk index.
func BenchmarkFlushAllSparse(b *testing.B) {
	a := New(Config{Words: 1 << 24})
	rng := rand.New(rand.NewSource(1))
	offs := make([]uint64, 1000)
	for i := range offs {
		offs[i] = uint64(1+rng.Intn(a.Lines()-1)) * WordsPerLine
	}
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		for _, off := range offs {
			a.Store(off, uint64(i)+1)
		}
		b.StartTimer()
		a.FlushAll()
	}
}
