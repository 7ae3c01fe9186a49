package txn

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"incll/internal/nvm"
)

// The intent record has one fence, before anything is applied, so until
// that fence completes a crash may persist any subset of the record's lines
// and nothing else the transfer wrote. This test does not sample those
// outcomes, it enumerates them: for a transfer stopped at each point of the
// commit, every subset of the record's own lines (header + content)
// survives in turn, with every other dirty line once lost and once
// persisted. Before the fence the transfer must come back exactly when the
// marked header and every content line made it — the checksum in the
// header is what tells — and not at all otherwise. From the fence on, at
// every step of the apply, it must come back by replay whatever else
// survived.
func TestEnumerateOneFenceRecordSubsets(t *testing.T) {
	// Neighbouring accounts share one value line of one leaf, so the apply
	// overwrites three hot slots of a line in place, with no ValInCLL,
	// relocation or undo-log fence of its own; accounts in three different
	// leaves touch one value line each.
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

	// durable: the point follows the record's fence.
	points := []struct {
		name    string
		durable bool
	}{
		{"intent-written", false}, {"mark-written", false},
		{"commit-durable", true}, {"applied-0", true}, {"applied-1", true}, {"applied-2", true},
	}
	all := uint64(1)<<uint(len(recLines)) - 1
	for _, point := range points {
		for _, rest := range []bool{false, true} {
			for mask := uint64(0); mask <= all; mask++ {
				f := transferStoppedAt(t, accts, point.name)
				// Before the fence nothing has drained a record line; after
				// it every one is persistent, and the subset changes nothing.
				for _, line := range recLines {
					if linePersistent(f.arena, line) != point.durable {
						t.Fatalf("%s: record line %d persistent=%v before the crash", point.name, line, !point.durable)
					}
				}
				wantPost := point.durable || point.name == "mark-written" && mask == all

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
						point.name, len(recLines), mask, recLines, rest, got, replayed, want, wantReplayed)
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

// TestEnumerateTransferRecordSubsets runs the enumeration above on the
// benchmark's commit: a four-account transfer plus the client's ordinal,
// five 8-byte keys with 3-byte values. Its record spans exactly two lines,
// the header line (which holds the first content words) and one content
// line, and before the fence neither line alone may replay; the outcome is
// post-state exactly when the enumeration above says it is.
func TestEnumerateTransferRecordSubsets(t *testing.T) {
	const ordinalKey, initBal, ordinal = enumAccounts, 1_000_000, 70_000
	accts := [4]uint64{3, 120, 121, 250}
	stoppedAt := func(point string) *singleFixture {
		f := newSingle(t)
		for k := uint64(0); k < enumAccounts; k++ {
			f.store.Put(key(k), initBal)
		}
		f.store.Put(key(ordinalKey), ordinal-1)
		f.store.Advance()
		f.m.SetHook(func(p string) {
			if p == point {
				panic(InjectedCrash{Point: p})
			}
		})
		tx := f.m.Begin(0)
		var bal [4]uint64
		for i, a := range accts {
			bal[i], _ = tx.Get(key(a))
		}
		tx.Put(key(accts[0]), bal[0]-17)
		tx.Put(key(accts[1]), bal[1]-17)
		tx.Put(key(accts[2]), bal[2]+17)
		tx.Put(key(accts[3]), bal[3]+17)
		tx.Put(key(ordinalKey), ordinal)
		if err := tx.Commit(); !errors.Is(err, ErrInjected) {
			t.Fatalf("commit stopped at %q = %v, want ErrInjected", point, err)
		}
		f.m.SetHook(nil)
		return f
	}

	var recLines []int
	stoppedAt("intent-written").crash(nvm.PolicyFunc(func(line int) bool {
		recLines = append(recLines, line)
		return false
	}))
	slices.Sort(recLines)
	if len(recLines) != 2 || recLines[1] != recLines[0]+1 {
		t.Fatalf("intent record spans lines %v; want a header line and the line after it", recLines)
	}

	const header, content, both = 0b01, 0b10, 0b11 // masks over recLines
	points := []struct {
		name    string
		durable bool
	}{
		{"intent-written", false}, {"mark-written", false}, {"commit-durable", true},
		{"applied-0", true}, {"applied-1", true}, {"applied-2", true}, {"applied-3", true}, {"applied-4", true},
	}
	pre := [5]uint64{initBal, initBal, initBal, initBal, ordinal - 1}
	post := [5]uint64{initBal - 17, initBal - 17, initBal + 17, initBal + 17, ordinal}
	for _, point := range points {
		for _, rest := range []bool{false, true} {
			for mask := uint64(0); mask <= both; mask++ {
				f := stoppedAt(point.name)
				for _, line := range recLines {
					if linePersistent(f.arena, line) != point.durable {
						t.Fatalf("%s: record line %d persistent=%v before the crash", point.name, line, !point.durable)
					}
				}
				wantPost := point.durable || point.name == "mark-written" && mask == both

				replayed := f.crash(nvm.SubsetPolicy(recLines, mask, rest))

				if !point.durable && replayed != 0 && (mask == header || mask == content) {
					t.Fatalf("%s, others persisted=%v: the record's line %d alone replayed",
						point.name, rest, recLines[bits.TrailingZeros64(mask)])
				}
				var got [5]uint64
				for i, a := range append(accts[:], ordinalKey) {
					got[i], _ = f.store.Get(key(a))
				}
				want, wantReplayed := pre, 0
				if wantPost {
					want, wantReplayed = post, 1
				}
				if got != want || replayed != wantReplayed {
					t.Fatalf("%s, record lines kept %02b of %v, others persisted=%v: values %v replayed %d, want %v replayed %d",
						point.name, mask, recLines, rest, got, replayed, want, wantReplayed)
				}
			}
		}
	}
}
