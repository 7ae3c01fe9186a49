package core

import (
	"fmt"
	"slices"
	"testing"

	"incll/internal/nvm"
	"incll/internal/testutil"
)

// A transaction's record is durable before its writes are applied, and
// recovery replays every committed record of a failed epoch over that
// epoch's rollback, so PutCommittedLocked stores an inline value over an
// inline value with no undo at all (DESIGN.md §6). The sequences below mix
// such writes with plain ones on one fixture leaf, in the line whose
// ValInCLL is taken, and crash after every step under every subset of the
// dirty lines. Before the replay each key must hold its checkpoint value or
// one its transactions wrote — the slot stays live, whatever the rollback
// restored into it — and after the replay exactly the committed model.

// covStep is a lineStep that may be a transaction's committed write of
// key := val; a plain step leaves covered false.
type covStep struct {
	lineStep
	covered  bool
	key, val uint64
}

// plainStep wraps a plain (doomed) step.
func plainStep(name string, do func(*Store), val, perm, logged int64, lines []int) covStep {
	return covStep{lineStep: lineStep{enumStep{name, do, val, perm, logged}, lines}}
}

// txnStep is a transaction's committed update of k to v, applied as the
// commit applies it: under the epoch guard, after the record's fence.
func txnStep(name string, k, v uint64, val, perm, logged int64, lines []int) covStep {
	do := func(s *Store) { commitPut(s, EncodeUint64(k), EncodeValue(v)) }
	return covStep{lineStep{enumStep{name, do, val, perm, logged}, lines}, true, k, v}
}

func commitPut(s *Store, k, v []byte) {
	s.Epochs().Enter()
	defer s.Epochs().Exit()
	s.Handle(0).PutCommittedLocked(k, v, nil)
}

func TestEnumerateCommittedUpdatePersistSubsets(t *testing.T) {
	claim := plainStep("line-3 update claims InCLL1", enumUpdate(enumL3Key), 1, 0, 0, []int{3})
	sequences := map[string][]covStep{
		// A plain update of the slot a transaction wrote finds the line's
		// ValInCLL held by another slot and relocates; the relocated key's
		// next transaction write lands in a slot free at epoch start.
		"txn-then-plain-relocates": {
			claim,
			txnStep("second hot slot, committed: in place", enumL3Key2, 2002, 0, 0, 0, []int{3}),
			plainStep("plain update of it: relocated, first perm touch", enumUpdate(enumL3Key2), 0, 1, 0, []int{0, 2, 3, 4}),
			txnStep("committed update of the relocated key", enumL3Key2, 2003, 0, 0, 0, []int{0, 2, 3, 4}),
		},
		// The committed write claims nothing, so the plain update after it
		// claims the stale InCLL2 and captures the transaction's word, and a
		// second plain slot of the line relocates.
		"txn-then-plain-claims": {
			txnStep("committed update: no claim of the stale InCLL2", enumL4Key, 2008, 0, 0, 0, []int{4}),
			plainStep("plain update claims InCLL2 over the committed word", enumUpdate(enumL4Key), 1, 0, 0, []int{4}),
			plainStep("second line-4 slot: relocated", enumUpdate(enumL4Key2), 0, 1, 0, []int{0, 2, 4}),
		},
		// The ValInCLL captured the epoch-start value before the transaction
		// wrote; it still restores that value, which the replay overwrites.
		"plain-claim-then-txn": {
			claim,
			txnStep("committed update of the claimed slot", enumL3Key, 2001, 0, 0, 0, []int{3}),
			plainStep("plain update of it: captured already", enumUpdate(enumL3Key), 0, 0, 0, []int{3}),
			txnStep("second committed update", enumL3Key, 2011, 0, 0, 0, []int{3}),
		},
		// The permutation's undo copy brings the deleted slot back, holding
		// whatever the slot's line reached NVM with.
		"txn-then-plain-delete": {
			claim,
			txnStep("second hot slot, committed: in place", enumL3Key2, 2002, 0, 0, 0, []int{3}),
			plainStep("plain delete of it: first perm touch", func(s *Store) { s.Delete(EncodeUint64(enumL3Key2)) }, 0, 1, 0, []int{0, 3}),
			plainStep("insert: slot 10", func(s *Store) { s.Put(EncodeUint64(enumNewKey), enumDoomVal) }, 0, 0, 0, []int{0, 2, 3, 4}),
		},
	}
	for name, steps := range sequences {
		t.Run(name, func(t *testing.T) {
			for upto := 1; upto <= len(steps); upto++ {
				var leaf nodeRef
				run := func() (*nvm.Arena, map[uint64]uint64) {
					a, s, n, model := enumFixture(t)
					leaf = n
					for _, st := range steps[:upto] {
						enumCounted(t, s, st.enumStep)
					}
					return a, model
				}
				when := fmt.Sprintf("after %q", steps[upto-1].name)
				lines := enumDirty(run)
				var got []int
				for _, line := range lines {
					if l := line - enumLeafLine(leaf, 0); l >= 0 && l < NodeWords/nvm.WordsPerLine {
						got = append(got, l)
					}
				}
				if want := steps[upto-1].lines; !slices.Equal(got, want) {
					t.Fatalf("%s: leaf lines %v dirty, want %v", when, got, want)
				}
				for mask := uint64(0); mask < 1<<uint(len(lines)); mask++ {
					a, model := run()
					a.Crash(nvm.SubsetPolicy(lines, mask, false))
					ctx := fmt.Sprintf("%s, lines kept %0*b of %v", when, len(lines), mask, lines)
					s := reopen(t, a, enumConfig())
					// Before the replay: the checkpoint value or a committed one.
					for k, v := range model {
						allowed := []uint64{v}
						for _, st := range steps[:upto] {
							if st.covered && st.key == k {
								allowed = append(allowed, st.val)
							}
						}
						if got, ok := s.Get(EncodeUint64(k)); !ok || !slices.Contains(allowed, got) {
							t.Fatalf("%s: before the replay key %d = %d,%v, want one of %v", ctx, k, got, ok, allowed)
						}
					}
					// The replay, as the transaction layer's recovery runs it:
					// every committed write, in commit order, as a plain put.
					for _, st := range steps[:upto] {
						if st.covered {
							s.Put(EncodeUint64(st.key), st.val)
							model[st.key] = st.val
						}
					}
					verifyModel(t, s, model, ctx)
				}
			}
		})
	}
}

// Only an inline value overwritten with an inline value skips the undo:
// every other committed write — a heap value on either side, an insert, a
// delete — moves the InCLL and external-log counters and dirties the leaf's
// lines exactly as the same write through the plain path does. Each case
// runs on the fixture leaf with InCLL1 already claimed by slot 1, so an
// undone update of slot 2 relocates.
func TestCommittedWritesOutsideInlineMatchPlainPath(t *testing.T) {
	heap := testutil.Pattern(7, 300)
	heap2 := testutil.Pattern(8, 200)
	inline := EncodeValue(42)
	k2, kNew := EncodeUint64(enumL3Key2), EncodeUint64(enumNewKey)
	cases := []struct {
		name      string
		committed []byte // key 2's value at the checkpoint; nil: the fixture's inline one
		do        func(h Handle, covered bool)
		// want is the (InCLLVal, InCLLPerm, LoggedNodes) delta of both paths.
		want [3]int64
	}{
		{"inline to heap", nil, func(h Handle, c bool) { h.put(k2, heap, c) }, [3]int64{0, 1, 0}},
		{"heap to inline", heap, func(h Handle, c bool) { h.put(k2, inline, c) }, [3]int64{0, 1, 0}},
		{"heap to heap", heap, func(h Handle, c bool) { h.put(k2, heap2, c) }, [3]int64{0, 1, 0}},
		{"insert", nil, func(h Handle, c bool) { h.put(kNew, inline, c) }, [3]int64{0, 1, 0}},
		{"delete", nil, func(h Handle, _ bool) { h.DeleteLocked(k2) }, [3]int64{0, 1, 0}},
		// The one write the record covers on its own.
		{"inline to inline", nil, func(h Handle, c bool) { h.put(k2, inline, c) }, [3]int64{0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var deltas [2][3]int64
			var dirty [2][]int
			for i, covered := range []bool{false, true} {
				build := func() (*nvm.Arena, map[uint64]uint64) {
					a, s, _, model := enumFixture(t)
					if tc.committed != nil {
						s.PutBytes(k2, tc.committed)
						s.Advance()
					}
					enumUpdate(enumL3Key)(s) // claims InCLL1
					st := &s.stats
					v0, p0, l0 := st.InCLLVal.Load(), st.InCLLPerm.Load(), st.LoggedNodes.Load()
					s.Epochs().Enter()
					tc.do(s.Handle(0), covered)
					s.Epochs().Exit()
					deltas[i] = [3]int64{st.InCLLVal.Load() - v0, st.InCLLPerm.Load() - p0, st.LoggedNodes.Load() - l0}
					return a, model
				}
				dirty[i] = enumDirty(build)
			}
			if tc.want == [3]int64{0, 0, 0} {
				// The undo-less store: no counter, and fewer lines than the
				// plain path's relocation.
				if deltas[1] != tc.want || deltas[0] == tc.want || len(dirty[1]) >= len(dirty[0]) {
					t.Fatalf("plain %v dirtying %v, committed %v dirtying %v: want committed %v and fewer lines",
						deltas[0], dirty[0], deltas[1], dirty[1], tc.want)
				}
				return
			}
			if deltas[0] != tc.want || deltas[1] != tc.want || !slices.Equal(dirty[0], dirty[1]) {
				t.Fatalf("plain path moved InCLLVal/InCLLPerm/LoggedNodes by %v dirtying %v, committed by %v dirtying %v; want both %v",
					deltas[0], dirty[0], deltas[1], dirty[1], tc.want)
			}
		})
	}
}
