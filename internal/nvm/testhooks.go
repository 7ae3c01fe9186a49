package nvm

import "errors"

// Hooks for other packages' tests. They are not part of the simulated
// machine, and production code never calls them.

// DirtyLines returns the number of lines that are not yet persistent.
// core's TestValueUpdateDirtiesOneLine, TestRelocationNeedsNoFence,
// TestTouchIsReadOnly and TestTransientMatchesDurable count the lines an
// operation dirties with it.
func (a *Arena) DirtyLines() int {
	n := 0
	for lo, hi := range a.marked() {
		for range a.dirty(lo, hi) {
			n++
		}
	}
	return n
}

// LoadPersisted reads the word at off from the persistent image. txn's
// TestEnumerateOneFenceRecordSubsets and TestEnumerateTransferRecordSubsets
// read it to tell whether a protocol point has made a line durable.
func (a *Arena) LoadPersisted(off uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.persist[off]
}

// EvenOddPolicy persists exactly the even-numbered (phase 0) or
// odd-numbered (phase 1) lines — a cheap adversary that tears every
// multi-line object in half. alloc's TestCrashedSpliceRedoneFromLimboTail,
// TestHeaderSurvivesPayloadWrites and TestEnumeratePageCuts and core's
// TestCrashManyPoliciesAndSeeds, TestAdversarialPersistOnlyValueLine and
// TestLargeValueCrashAtEveryOp crash with it.
func EvenOddPolicy(phase int) Policy {
	return PolicyFunc(func(line int) bool { return line%2 == phase&1 })
}

// SubsetPolicy persists exactly those of lines whose bit is set in mask
// (bit i stands for lines[i]) and gives every other dirty line the fixed
// verdict rest. Stepping mask from 0 to 1<<len(lines)-1 enumerates every
// crash outcome of a small protocol step instead of sampling them, as
// core's TestEnumerate* tests and txn's TestEnumerateOneFenceRecordSubsets
// and TestEnumerateTransferRecordSubsets do; alloc's
// TestEnumeratePageCuts crosses every subset with every store of its
// protocol, and TestHeaderSurvivesPayloadWrites persists fixed subsets of
// object lines.
func SubsetPolicy(lines []int, mask uint64, rest bool) Policy {
	return PolicyFunc(func(line int) bool {
		for i, l := range lines {
			if l == line {
				return mask>>uint(i)&1 != 0
			}
		}
		return rest
	})
}

// ErrCut is what a Store cut by CutAfter panics with.
var ErrCut = errors.New("nvm: store sequence cut")

// CutAfter makes the n-th Store from now on an eviction arena
// (DirtyCapacity > 0) write its word and then panic with ErrCut, so a
// deterministic protocol can be cut after each of its stores in turn and
// crashed there; n = 0 disarms. alloc's TestEnumeratePageCuts cuts its
// offset-page protocol after every store.
func (a *Arena) CutAfter(n int64) { a.cut.Store(n) }
