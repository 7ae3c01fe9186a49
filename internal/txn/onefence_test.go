package txn

import (
	"errors"
	"slices"
	"testing"

	"incll/internal/nvm"
)

// The intent record has one fence, at the very end of the commit, so until
// that fence completes a crash may persist any subset of the record's
// lines. This test does not sample those outcomes, it enumerates them: for
// a transfer stopped at each point between the record's first store and
// its fence, every subset of the record's own lines (header + content)
// survives in turn, with every other dirty line once lost and once
// persisted. The transfer must come back exactly when the marked header
// and every content line made it — the checksum in the header is what
// tells — and not at all otherwise.
func TestEnumerateOneFenceRecordSubsets(t *testing.T) {
	// Neighbouring accounts share a leaf: its second update in the epoch
	// goes to the undo log, whose fence also drains the record's content
	// lines early. Accounts in three different leaves are updated in their
	// cache lines alone, so the content lines stay pending up to the mark.
	t.Run("one-leaf", func(t *testing.T) { enumerateRecordSubsets(t, [3]uint64{0, 1, 2}) })
	t.Run("three-leaves", func(t *testing.T) { enumerateRecordSubsets(t, [3]uint64{3, 120, 250}) })
}

const enumAccounts = 256

func enumerateRecordSubsets(t *testing.T, accts [3]uint64) {
	// Stop a first transfer right after AppendIntent: nothing else is dirty
	// (the bank was just checkpointed), so the lines a crash there offers to
	// the policy are the record's lines. The layout is deterministic, so
	// every fresh bank puts its first record on the same lines.
	var recLines []int
	f := transferStoppedAt(t, accts, "intent-written")
	f.crash(nvm.PolicyFunc(func(line int) bool {
		recLines = append(recLines, line)
		return false
	}))
	slices.Sort(recLines)
	if n := len(recLines); n < 2 || n > 5 {
		t.Fatalf("intent record spans %d lines %v; want header + 1..4 content lines", n, recLines)
	}

	points := []string{"intent-written", "applied-0", "applied-1", "applied-2", "mark-written"}
	for _, point := range points {
		for _, rest := range []bool{false, true} {
			for mask := uint64(0); mask < 1<<uint(len(recLines)); mask++ {
				f := transferStoppedAt(t, accts, point)
				// A record line survives the crash if the policy keeps it or
				// it is persistent already (an apply step's undo-log fence
				// drains every pending writeback, the record's included).
				whole := true
				for i, line := range recLines {
					whole = whole && (mask>>uint(i)&1 != 0 || linePersistent(f.arena, line))
				}
				wantPost := point == "mark-written" && whole

				replayed := f.crash(nvm.SubsetPolicy(recLines, mask, rest))

				var got [3]uint64
				for i, a := range accts {
					got[i], _ = f.store.Get(key(a))
				}
				want, wantReplayed := [3]uint64{bankInitBal, bankInitBal, bankInitBal}, 0
				if wantPost {
					want, wantReplayed = [3]uint64{bankInitBal - 17, bankInitBal + 10, bankInitBal + 7}, 1
				}
				if got != want || replayed != wantReplayed {
					t.Fatalf("%s, record lines kept %0*b of %v, others persisted=%v: balances %v replayed %d, want %v replayed %d",
						point, len(recLines), mask, recLines, rest, got, replayed, want, wantReplayed)
				}
			}
		}
	}
}

// transferStoppedAt builds a freshly checkpointed single-store bank and
// runs one transfer between the three accounts whose commit is stopped by
// the crash hook at the named protocol point.
func transferStoppedAt(t *testing.T, accts [3]uint64, point string) *singleFixture {
	t.Helper()
	f := newSingle(t)
	for k := uint64(0); k < enumAccounts; k++ {
		f.store.Put(key(k), bankInitBal)
	}
	f.store.Advance()
	f.m.SetHook(func(p string) {
		if p == point {
			panic(InjectedCrash{Point: p})
		}
	})
	tx := f.m.Begin(0)
	var bal [3]uint64
	for i, a := range accts {
		bal[i], _ = tx.Get(key(a))
	}
	tx.Put(key(accts[0]), bal[0]-17)
	tx.Put(key(accts[1]), bal[1]+10)
	tx.Put(key(accts[2]), bal[2]+7)
	if err := tx.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit stopped at %q = %v, want ErrInjected", point, err)
	}
	f.m.SetHook(nil)
	return f
}

// linePersistent reports whether a line's NVM image already equals what
// the cache holds, i.e. whether losing it in a crash loses nothing.
func linePersistent(a *nvm.Arena, line int) bool {
	for w := uint64(line) * nvm.WordsPerLine; w < uint64(line+1)*nvm.WordsPerLine; w++ {
		if a.Load(w) != a.LoadPersisted(w) {
			return false
		}
	}
	return true
}
