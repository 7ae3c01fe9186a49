package core

import (
	"fmt"
	"slices"
	"testing"

	"incll/internal/nvm"
)

// A ValInCLL is invalidated by its epoch tag, not by a store (incll.go's
// file comment): the first modification of a leaf in an epoch leaves the
// ValInCLL of the line it does not touch as it was, stale-tagged. These
// tests do not sample the crashes that protocol must survive, they
// enumerate them on one leaf: after every step of a short op sequence,
// every subset of the dirty cache lines reaches NVM in turn, and the
// reopened store must read back its epoch-start keys and values.

const (
	enumKeys    = 10 // one leaf, key i in slot i: slots 0..6 in line 3, 7..9 in line 4
	enumL3Key   = 1
	enumL3Key2  = 2
	enumL4Key   = 8 // the slot the stale InCLL2 names
	enumL4Key2  = 9
	enumDelKey  = 3
	enumNewKey  = 100
	enumDoomVal = 777
)

func enumConfig() Config {
	return Config{Workers: 1, LogSegWords: 1 << 12, TxnSegWords: 1 << 10, HeapWords: 1 << 14}
}

func enumVal(k uint64) uint64 { return 1000 + k }

// enumFixture builds, deterministically, a single-leaf store whose InCLL2
// holds a valid index and value tagged with an epoch committed two
// boundaries ago, and returns it at the start of a fresh epoch together
// with the committed model.
func enumFixture(t *testing.T) (*nvm.Arena, *Store, nodeRef, map[uint64]uint64) {
	t.Helper()
	a := nvm.New(nvm.Config{Words: 1 << 16})
	s, _ := Open(a, enumConfig())
	model := map[uint64]uint64{}
	for k := uint64(0); k < enumKeys; k++ {
		s.Put(EncodeUint64(k), enumVal(k))
		model[k] = enumVal(k)
	}
	s.Advance()
	tagged := s.Epochs().Current()
	s.Put(EncodeUint64(enumL4Key), enumVal(enumL4Key)+1) // first touch: InCLL2 = (enumVal, slot 8, tagged)
	model[enumL4Key]++
	s.Advance()
	s.Advance()

	h := s.Handle(0)
	n := h.ref(h.rootCell0().root())
	if !n.isLeaf() {
		t.Fatal("fixture: root is not a leaf")
	}
	p := n.perm()
	for k := 0; k < enumKeys; k++ {
		if p.slot(k) != k {
			t.Fatalf("fixture: key %d in slot %d", k, p.slot(k))
		}
	}
	ic := n.load(fInCLL2)
	if valInCLLIdx(ic) != enumL4Key || valInCLLEp16(ic) != tagged&0xFFFF || s.Epochs().Current() != tagged+2 {
		t.Fatalf("fixture: InCLL2 idx %d tag %d at epoch %d, want idx %d tag %d at epoch %d",
			valInCLLIdx(ic), valInCLLEp16(ic), s.Epochs().Current(), enumL4Key, tagged&0xFFFF, tagged+2)
	}
	return a, s, n, model
}

// enumerateSubsets crashes the state build returns once for every subset of
// its dirty lines (at most maxLines of them) and checks that the reopened
// store holds exactly the model build returned. build must be
// deterministic: a first probe crash names the dirty lines of every later
// build.
func enumerateSubsets(t *testing.T, maxLines int, when string, build func() (*nvm.Arena, map[uint64]uint64)) {
	t.Helper()
	var lines []int
	a, _ := build()
	a.Crash(nvm.PolicyFunc(func(line int) bool {
		lines = append(lines, line)
		return false
	}))
	slices.Sort(lines)
	if len(lines) == 0 || len(lines) > maxLines {
		t.Fatalf("%s: %d dirty lines %v; want 1..%d", when, len(lines), lines, maxLines)
	}
	for mask := uint64(0); mask < 1<<uint(len(lines)); mask++ {
		a, model := build()
		a.Crash(nvm.SubsetPolicy(lines, mask, false))
		ctx := fmt.Sprintf("%s, lines kept %0*b of %v", when, len(lines), mask, lines)
		verifyModel(t, reopen(t, a, enumConfig()), model, ctx)
	}
}

type enumStep struct {
	name string
	do   func(s *Store)
	// Expected change of the (InCLLVal, InCLLPerm, LoggedNodes) counters:
	// which mechanism absorbed the step is part of the protocol.
	val, perm, logged int64
}

func enumUpdate(k uint64) func(*Store) {
	return func(s *Store) { s.Put(EncodeUint64(k), enumDoomVal) }
}

func TestEnumerateFirstTouchPersistSubsets(t *testing.T) {
	del := func(s *Store) { s.Delete(EncodeUint64(enumDelKey)) }
	ins := func(s *Store) { s.Put(EncodeUint64(enumNewKey), enumDoomVal) }
	sequences := map[string][]enumStep{
		// The stale InCLL2 names the very slot the second step updates: a
		// claim that compared indexes before tags would skip the capture.
		"value-first": {
			{"first-touch line-3 update", enumUpdate(enumL3Key), 1, 0, 0},
			{"line-4 update claims stale InCLL2", enumUpdate(enumL4Key), 1, 0, 0},
			{"second line-3 slot: relocated, first perm touch", enumUpdate(enumL3Key2), 0, 1, 0},
			{"delete", del, 0, 0, 0},
			{"insert after delete: external log", ins, 0, 0, 1},
		},
		// A permutation change dirties line 0 alone; both ValInCLLs are
		// then claimed mid-epoch by their tags, one of them over a valid
		// index that names another slot.
		"perm-first": {
			{"first-touch delete", del, 0, 1, 0},
			{"line-4 update claims stale InCLL2", enumUpdate(enumL4Key2), 1, 0, 0},
			{"line-3 update claims InCLL1", enumUpdate(enumL3Key), 1, 0, 0},
			{"same slots again: captured", func(s *Store) {
				enumUpdate(enumL4Key2)(s)
				enumUpdate(enumL3Key)(s)
			}, 0, 0, 0},
			{"insert after delete: external log", ins, 0, 0, 1},
		},
	}
	for name, steps := range sequences {
		t.Run(name, func(t *testing.T) {
			for upto := 1; upto <= len(steps); upto++ {
				run := func() (*nvm.Arena, map[uint64]uint64) {
					a, s, _, model := enumFixture(t)
					for _, st := range steps[:upto] {
						v0, p0, l0 := s.stats.InCLLVal.Load(), s.stats.InCLLPerm.Load(), s.stats.LoggedNodes.Load()
						st.do(s)
						if v, p, l := s.stats.InCLLVal.Load()-v0, s.stats.InCLLPerm.Load()-p0, s.stats.LoggedNodes.Load()-l0; v != st.val || p != st.perm || l != st.logged {
							t.Fatalf("%s: InCLLVal/InCLLPerm/LoggedNodes moved by %d/%d/%d, want %d/%d/%d", st.name, v, p, l, st.val, st.perm, st.logged)
						}
					}
					return a, model
				}
				enumerateSubsets(t, 10, fmt.Sprintf("after %q", steps[upto-1].name), run)
			}
		})
	}
}

// ValInCLL tags are 16 bits wide and recovery widens them with the
// nodeEpoch's high bits, so a tag written in one 2^16-epoch window must not
// survive the nodeEpoch's move into the next: 65 536 epochs after the
// fixture's InCLL2 was written its tag names the current epoch again. The
// leaf's first modification in the new window must reset it, or the crash
// below applies a value the key stopped holding one window ago.
func TestEnumerateWindowCrossingResetsStaleTags(t *testing.T) {
	build := func() (*nvm.Arena, map[uint64]uint64) {
		a, s, n, model := enumFixture(t)
		tag := valInCLLEp16(n.load(fInCLL2))
		for s.Epochs().Current()>>16 == 0 {
			s.Advance() // idle: nothing is dirty, a boundary is a few header stores
		}
		// First touch in the new window, on the line InCLL2 does not share.
		s.Put(EncodeUint64(enumL3Key), enumVal(enumL3Key)+5)
		model[enumL3Key] = enumVal(enumL3Key) + 5
		for s.Epochs().Current()&0xFFFF != tag {
			s.Advance()
		}
		// The aliased epoch: a doomed update, again away from InCLL2's line.
		s.Put(EncodeUint64(enumL3Key2), enumDoomVal)
		return a, model
	}
	enumerateSubsets(t, 6, "aliased epoch", build)
}

// A value update stamps no nodeEpoch (incll.go's file comment): its first
// touch of a leaf in an epoch writes the updated slot's line and nothing
// else. The tests below enumerate that protocol the same way — every subset
// of the dirty lines after every step — and also assert which lines a step
// dirtied, since "line 0 stays clean" is the point of it.

// enumDirty builds the state once and returns its dirty lines, sorted; the
// probe crash consumes the build.
func enumDirty(build func() (*nvm.Arena, map[uint64]uint64)) []int {
	var lines []int
	a, _ := build()
	a.Crash(nvm.PolicyFunc(func(line int) bool {
		lines = append(lines, line)
		return false
	}))
	slices.Sort(lines)
	return lines
}

// enumCounted runs do and fails unless it moved the (InCLLVal, InCLLPerm,
// LoggedNodes) counters by exactly (val, perm, logged).
func enumCounted(t *testing.T, s *Store, st enumStep) {
	t.Helper()
	v0, p0, l0 := s.stats.InCLLVal.Load(), s.stats.InCLLPerm.Load(), s.stats.LoggedNodes.Load()
	st.do(s)
	if v, p, l := s.stats.InCLLVal.Load()-v0, s.stats.InCLLPerm.Load()-p0, s.stats.LoggedNodes.Load()-l0; v != st.val || p != st.perm || l != st.logged {
		t.Fatalf("%s: InCLLVal/InCLLPerm/LoggedNodes moved by %d/%d/%d, want %d/%d/%d", st.name, v, p, l, st.val, st.perm, st.logged)
	}
}

// enumLeafLine returns the arena line of the fixture leaf's line l.
func enumLeafLine(n nodeRef, l int) int { return int(n.off/nvm.WordsPerLine) + l }

func TestEnumerateValueFirstTouchPersistSubsets(t *testing.T) {
	del := func(k uint64) func(*Store) { return func(s *Store) { s.Delete(EncodeUint64(k)) } }
	ins := func(s *Store) { s.Put(EncodeUint64(enumNewKey), enumDoomVal) }
	sequences := map[string][]lineStep{
		// The ValInCLLs of both lines are claimed over stale tags — InCLL2's
		// naming the very slot updated — and line 0 is never written.
		"value-only": {
			{enumStep{"first touch: line-3 update", enumUpdate(enumL3Key), 1, 0, 0}, []int{3}},
			{enumStep{"line-4 update claims stale InCLL2", enumUpdate(enumL4Key), 1, 0, 0}, []int{3, 4}},
			{enumStep{"same slots again: captured", func(s *Store) {
				enumUpdate(enumL3Key)(s)
				enumUpdate(enumL4Key)(s)
			}, 0, 0, 0}, []int{3, 4}},
		},
		// A permutation change after a value update in the same epoch finds
		// the nodeEpoch older than the epoch and takes its own first touch;
		// the permutation it captures is still the epoch-start one.
		"value-then-remove": {
			{enumStep{"first touch: line-3 update", enumUpdate(enumL3Key), 1, 0, 0}, []int{3}},
			{enumStep{"remove the updated key: first perm touch", del(enumL3Key), 0, 1, 0}, []int{0, 3}},
			{enumStep{"remove a line-4 key", del(enumL4Key2), 0, 0, 0}, []int{0, 3}},
			{enumStep{"insert after remove: external log", ins, 0, 0, 1}, nil},
		},
		"value-then-insert": {
			{enumStep{"first touch: line-4 update", enumUpdate(enumL4Key2), 1, 0, 0}, []int{4}},
			{enumStep{"insert: first perm touch", ins, 0, 1, 0}, nil},
			// The new key takes free slot 10, in line 4, whose ValInCLL
			// already holds slot 9's epoch-start value; the insert left
			// insAllowed set, so the update moves it on to free slot 11.
			{enumStep{"update the inserted key: relocated", enumUpdate(enumNewKey), 0, 0, 0}, []int{0, 2, 4}},
			{enumStep{"remove after the relocation", del(enumL3Key), 0, 0, 0}, nil},
		},
	}
	enumLineSequences(t, sequences)
}

// lineStep is an enumStep plus the fixture leaf's lines that must be dirty
// after it (nil: not checked); no other line of the leaf may be.
type lineStep struct {
	enumStep
	lines []int
}

// enumLineSequences runs every sequence from a fresh fixture, step by step:
// after each step it checks the counter deltas and the leaf's dirty lines,
// then crashes with every subset of the dirty lines.
func enumLineSequences(t *testing.T, sequences map[string][]lineStep) {
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
				if want := steps[upto-1].lines; want != nil {
					var got []int
					for _, line := range enumDirty(run) {
						if l := line - enumLeafLine(leaf, 0); l >= 0 && l < NodeWords/nvm.WordsPerLine {
							got = append(got, l)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: leaf lines %v dirty, want %v", when, got, want)
					}
				}
				enumerateSubsets(t, 10, when, run)
			}
		})
	}
}

// A second hot slot in one value line moves to a free slot of the leaf, and
// one permutation store under the InCLLp publishes the move (incll.go). The
// sequences below pin when that is allowed — the leaf's first permutation
// touch, or an epoch with insAllowed still set — and that everything else
// falls back on the external log. Fixture slots 0..6 live in line 3, so a
// line-3 entry relocates to free slot 10 (ikey in line 2, value in line 4);
// a line-4 entry relocates within line 4, to slot 10 or the next free one.
func TestEnumerateRelocationPersistSubsets(t *testing.T) {
	del := func(k uint64) func(*Store) { return func(s *Store) { s.Delete(EncodeUint64(k)) } }
	ins := func(s *Store) { s.Put(EncodeUint64(enumNewKey), enumDoomVal) }
	first := lineStep{enumStep{"first touch: line-3 update", enumUpdate(enumL3Key), 1, 0, 0}, []int{3}}
	reloc := lineStep{enumStep{"second line-3 slot: relocated, first perm touch", enumUpdate(enumL3Key2), 0, 1, 0}, []int{0, 2, 3, 4}}
	sequences := map[string][]lineStep{
		"value-then-second-slot": {first, reloc},
		"insert-then-relocate": {
			{enumStep{"insert: first perm touch", ins, 0, 1, 0}, []int{0, 2, 4}},
			{enumStep{"line-4 update claims stale InCLL2", enumUpdate(enumL4Key), 1, 0, 0}, []int{0, 2, 4}},
			{enumStep{"second line-4 slot: relocated under insAllowed", enumUpdate(enumL4Key2), 0, 0, 0}, []int{0, 2, 4}},
		},
		"relocate-then-insert": {
			first, reloc,
			{enumStep{"insert after the relocation: external log", ins, 0, 0, 1}, nil},
		},
		"relocate-then-remove": {
			first, reloc,
			{enumStep{"remove the relocated key", del(enumL3Key2), 0, 0, 0}, []int{0, 2, 3, 4}},
			{enumStep{"remove another key", del(enumDelKey), 0, 0, 0}, []int{0, 2, 3, 4}},
		},
		// The relocated key's new slot is in line 4, whose ValInCLL is free
		// to claim this epoch.
		"relocate-then-update": {
			first, reloc,
			{enumStep{"update the relocated key: claims InCLL2", enumUpdate(enumL3Key2), 1, 0, 0}, []int{0, 2, 3, 4}},
			{enumStep{"and again: captured", enumUpdate(enumL3Key2), 0, 0, 0}, []int{0, 2, 3, 4}},
		},
		// Relocated within line 4, the key shares InCLL2 with the slot that
		// claimed it, and a second relocation is not allowed.
		"relocate-within-line-then-update": {
			{enumStep{"line-4 update claims stale InCLL2", enumUpdate(enumL4Key), 1, 0, 0}, []int{4}},
			{enumStep{"second line-4 slot: relocated, first perm touch", enumUpdate(enumL4Key2), 0, 1, 0}, []int{0, 2, 4}},
			{enumStep{"update the relocated key: external log", enumUpdate(enumL4Key2), 0, 0, 1}, nil},
		},
		// Rewriting the committed values relocates key 9 to slot 10 and
		// leaves the model as it was; the next epoch moves it back to slot
		// 9, whose ikey and kind still match, so the ikey line stays clean.
		"relocate-back-next-epoch": {
			{enumStep{"second line-4 slot: relocated to slot 10", func(s *Store) {
				s.Put(EncodeUint64(enumL4Key), enumVal(enumL4Key)+1)
				s.Put(EncodeUint64(enumL4Key2), enumVal(enumL4Key2))
			}, 1, 1, 0}, []int{0, 2, 4}},
			{enumStep{"next epoch: relocated back to the slot it vacated", func(s *Store) {
				s.Advance()
				enumUpdate(enumL4Key)(s)
				enumUpdate(enumL4Key2)(s)
			}, 1, 1, 0}, []int{0, 4}},
		},
		"remove-then-relocate": {
			{enumStep{"first touch: remove", del(enumDelKey), 0, 1, 0}, []int{0}},
			{enumStep{"line-3 update claims InCLL1", enumUpdate(enumL3Key), 1, 0, 0}, []int{0, 3}},
			// The removed key's slot is free and in line 3: a relocation
			// there would overwrite the value recovery restores.
			{enumStep{"second line-3 slot: external log", enumUpdate(enumL3Key2), 0, 0, 1}, nil},
		},
	}
	enumLineSequences(t, sequences)
}

// A full leaf has no free slot to relocate into: a second hot slot in one
// value line falls back on the external log.
func TestEnumerateRelocationFullLeafLogs(t *testing.T) {
	build := func() (*nvm.Arena, map[uint64]uint64) {
		a, s, _, model := enumFixture(t)
		for k := uint64(enumKeys); k < LeafWidth; k++ {
			s.Put(EncodeUint64(k), enumVal(k))
			model[k] = enumVal(k)
		}
		s.Advance()
		enumCounted(t, s, enumStep{"first touch: line-3 update", enumUpdate(enumL3Key), 1, 0, 0})
		enumCounted(t, s, enumStep{"second line-3 slot in a full leaf: external log", enumUpdate(enumL3Key2), 0, 0, 1})
		return a, model
	}
	enumerateSubsets(t, 10, "relocation in a full leaf", build)
}

// A value update that carries the leaf into a new 2^16-epoch window is
// external-logged, which resets both tags into the window; the next epoch's
// value update then claims a ValInCLL whose tag recovery widens with the new
// window's high bits, and again writes its own line alone.
func TestEnumerateWindowCrossingValueUpdate(t *testing.T) {
	var leaf nodeRef
	build := func(committed bool) func() (*nvm.Arena, map[uint64]uint64) {
		return func() (*nvm.Arena, map[uint64]uint64) {
			a, s, n, model := enumFixture(t)
			leaf = n
			for s.Epochs().Current()>>16 == 0 {
				s.Advance()
			}
			if !committed {
				enumCounted(t, s, enumStep{"window-crossing update", enumUpdate(enumL3Key), 0, 0, 1})
				return a, model
			}
			s.Put(EncodeUint64(enumL3Key), enumVal(enumL3Key)+7)
			model[enumL3Key] = enumVal(enumL3Key) + 7
			s.Advance()
			enumCounted(t, s, enumStep{"update in the new window", enumUpdate(enumL4Key2), 1, 0, 0})
			return a, model
		}
	}
	enumerateSubsets(t, 10, "window-crossing update", build(false))
	if lines := enumDirty(build(false)); !slices.Contains(lines, enumLeafLine(leaf, 0)) {
		t.Fatalf("window-crossing update left line 0 clean (dirty %v): the nodeEpoch did not move", lines)
	}
	enumerateSubsets(t, 10, "update after the crossing", build(true))
	if lines, want := enumDirty(build(true)), []int{enumLeafLine(leaf, 4)}; !slices.Equal(lines, want) {
		t.Fatalf("update after the crossing dirtied lines %v, want %v", lines, want)
	}
}

// Version words are not durable: a lock held when the power fails is gone
// after the reopen, whichever lines reached NVM, and the leaf it guarded
// takes the next locked update.
func TestEnumerateCrashWithLeafLockHeld(t *testing.T) {
	var leaf nodeRef
	build := func() (*nvm.Arena, map[uint64]uint64) {
		a, s, n, model := enumFixture(t)
		leaf = n
		enumUpdate(enumL3Key)(s)
		enumUpdate(enumL4Key)(s)
		n.lock() // the crash comes mid-operation
		return a, model
	}
	lines := enumDirty(build)
	if len(lines) == 0 || len(lines) > 10 {
		t.Fatalf("%d dirty lines %v; want 1..10", len(lines), lines)
	}
	for mask := uint64(0); mask < 1<<uint(len(lines)); mask++ {
		a, model := build()
		a.Crash(nvm.SubsetPolicy(lines, mask, false))
		ctx := fmt.Sprintf("lock held, lines kept %0*b of %v", len(lines), mask, lines)
		s := reopen(t, a, enumConfig())
		h := s.Handle(0)
		if v := h.ref(leaf.off).version().Load(); v&vLocked != 0 {
			t.Fatalf("%s: reopened leaf's version %#x is locked", ctx, v)
		}
		verifyModel(t, s, model, ctx)
		s.Put(EncodeUint64(enumL3Key2), enumDoomVal+1)
		model[enumL3Key2] = enumDoomVal + 1
		s.Advance()
		a.Crash(nvm.PersistNone)
		verifyModel(t, reopen(t, a, enumConfig()), model, ctx+", then a committed update")
	}
}
