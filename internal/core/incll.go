package core

// This file implements the paper's logging decision logic (§4.1, Listing 3)
// and lazy recovery (§4.3, Listing 4):
//
//   - beforePermChange runs before an insert or remove modifies the
//     permutation word, maintaining InCLLp (nodeEpoch, permutationInCLL,
//     insAllowed, logged).
//   - beforeValUpdate runs before an update overwrites a value word
//     (inline value or heap-block pointer — see value.go), maintaining
//     InCLL1/InCLL2 — including the mid-epoch claim of an unused ValInCLL
//     that the paper's §4.1.3 describes — or, when the line's ValInCLL
//     already holds another slot, having the caller relocate the entry
//     under InCLLp (below).
//   - logLeaf / logInterior fall back to the external object log.
//   - lazyRecoverLeaf repairs a leaf on its first access after a crash,
//     under transient recovery locks. Interiors need no lazy repair: the
//     external log restores their content at Open, and their version words
//     live in DRAM (node.go).
//
// Persistence-ordering arguments are local to each cache line: the InCLLp
// fields share line 0 with the permutation, and each ValInCLL shares its
// line with the value words it can log, so "undo copy before mutation" in
// program order is enough under PCSO — no flushes on these paths.
//
// A ValInCLL is validated by its own 16-bit epoch tag and by nothing in line
// 0. A value update writes only the ValInCLL that shares the updated slot's
// line, and the slot: it stamps no nodeEpoch, so a first touch dirties one
// line. That goes beyond the paper's Listing 3, which stamps the nodeEpoch
// on any first modification, and it is sound because
//   - recovery applies a ValInCLL when its tag, widened with the nodeEpoch's
//     high bits, names a failed epoch, and the lazy-recovery gate fires for
//     every leaf last stamped before the current execution — touched in the
//     failed epoch or not;
//   - an update leaves the permutation alone, so permutationInCLL has
//     nothing to capture, and a later permutation change in the same epoch
//     takes its own first touch (the nodeEpoch is still older) and captures
//     a permutation that is still the epoch-start one.
// A ValInCLL the current epoch did not write keeps whatever it last held,
// tagged with a committed epoch of the current execution (lazy recovery
// resets both ValInCLLs before a leaf's first modification after a
// restart), so recovery ignores it and beforeValUpdate treats a tag other
// than the current epoch's exactly like an invalid index. Tags are 16 bits
// wide, so they must lie in the nodeEpoch's 2^16-epoch window: a leaf's
// first modification in a new window goes through logLeaf, which resets
// both tags and moves the nodeEpoch there.
//
// A second hot slot in one value line is relocated instead of logged, which
// the paper's Listing 3 does not do: layerPut writes the key and new value
// into a free slot and one permutation store swaps it in for the old slot.
// That is an insert into a slot free at epoch start plus a removal of the
// old one, both covered by InCLLp: recovery restores the epoch-start
// permutation, which names the old slot, untouched. It is sound when the
// free slot holds nothing recovery needs — on the leaf's first permutation
// touch of the epoch, or while insAllowed says no removal has vacated a slot
// — and the relocation clears insAllowed, so the slot it vacates keeps its
// epoch-start value until the epoch commits. Anything else external-logs.

import "incll/internal/nvm"

// beforePermChange prepares the leaf for a permutation change in the
// current epoch. isInsert distinguishes insertion (which a prior removal in
// the same epoch forbids from using the InCLL) from removal (which is
// always InCLL-compatible but forbids later insertions).
func (h Handle) beforePermChange(n nodeRef, isInsert bool) {
	s := h.s
	cur := s.mgr.Current()
	w := n.load(fEpoch)
	if epochOf(w) == cur {
		if loggedBit(w) {
			return // fully covered by the external log this epoch
		}
		if isInsert {
			if !insAllowedBit(w) {
				// Remove-then-insert in one epoch could overwrite an
				// entry that recovery must restore: external log.
				h.logLeaf(n, cur)
			}
			return
		}
		// A removal forbids later InCLL insertions this epoch.
		if insAllowedBit(w) {
			n.store(fEpoch, packEpochWord(cur, false, false))
		}
		return
	}
	// First modification of this node in the current epoch.
	if s.cfg.DisableInCLL || cur>>16 != epochOf(w)>>16 {
		// LOGGING mode, or the 16-bit low-epoch encoding in the ValInCLLs
		// would be ambiguous (happens about once an hour at 64 ms epochs;
		// logLeaf resets the ValInCLLs into the new window).
		h.logLeaf(n, cur)
		return
	}
	// The ValInCLLs are left alone — their stale tags already invalidate
	// them — so a permutation change dirties line 0 only.
	n.store(fPermInCLL, uint64(n.perm()))
	// Same cache line as the store above and the permutation that the
	// caller is about to modify: PCSO orders everything for free.
	n.store(fEpoch, packEpochWord(cur, isInsert, false))
	s.stats.InCLLPerm.Add(h.w, 1)
}

// beforeValUpdate prepares the leaf for overwriting vals[idx] in the
// current epoch, logging the old pointer in the ValInCLL that shares its
// cache line. Line 0 is only read: the nodeEpoch is not stamped for a value
// update, so a first touch dirties the updated slot's line alone.
//
// When that ValInCLL already holds another slot this epoch, it reports true
// instead: the caller must relocate the entry — write the new value into a
// free slot and swap that slot into the permutation (layerPut) — under the
// InCLLp this prepares, so the update needs neither the external log nor a
// fence.
func (h Handle) beforeValUpdate(n nodeRef, idx int) (relocate bool) {
	s := h.s
	cur := s.mgr.Current()
	w := n.load(fEpoch)
	if epochOf(w) == cur {
		if loggedBit(w) {
			return false // fully covered by the external log this epoch
		}
	} else if s.cfg.DisableInCLL || cur>>16 != epochOf(w)>>16 {
		// LOGGING mode, or the ValInCLL tags would leave the nodeEpoch's
		// 2^16-epoch window (logLeaf resets them into the new one).
		h.logLeaf(n, cur)
		return false
	}
	line := valLine(idx)
	ic := n.load(inCLLOff(line))
	switch {
	case valInCLLEp16(ic) != cur&0xFFFF || valInCLLIdx(ic) == invalidIdx:
		// Claim the unused ValInCLL — unused because it was reset, or
		// because it was last written in an earlier epoch. Either way no
		// slot of this line was overwritten under it this epoch, and idx was
		// not modified yet (a same-epoch remove would have forced logging,
		// and a same-epoch insert of this slot makes its value irrelevant
		// after rollback), so its current value is the epoch-start value.
		n.store(inCLLOff(line), packValInCLL(n.val(idx), idx, cur))
		s.stats.InCLLVal.Add(h.w, 1)
	case valInCLLIdx(ic) == idx:
		// This slot's epoch-start value is already captured.
	default:
		// Two hot slots in one cache line. Relocate into a free slot if one
		// is known to hold nothing recovery needs: on the leaf's first
		// permutation touch every free slot was free at epoch start, and
		// after it insAllowed says no removal or relocation has vacated one.
		p := n.perm()
		if p.count() == LeafWidth || epochOf(w) == cur && !insAllowedBit(w) {
			h.logLeaf(n, cur)
			return false
		}
		if epochOf(w) != cur {
			n.store(fPermInCLL, uint64(p))
			s.stats.InCLLPerm.Add(h.w, 1)
		}
		// Same line as the permutation the caller swaps: PCSO orders the
		// capture, this stamp and the swap. insAllowed is cleared because
		// the slot the relocation vacates still holds its epoch-start value
		// and must stay untouched until the epoch commits.
		n.store(fEpoch, packEpochWord(cur, false, false))
		return true
	}
	return false
}

// logLeaf records the leaf's pre-image in the external log (once per
// epoch) and marks it logged. The entry is durable when this returns.
func (h Handle) logLeaf(n nodeRef, cur uint64) {
	w := n.load(fEpoch)
	if epochOf(w) == cur && loggedBit(w) {
		return
	}
	if !h.lw.LogObject(n.off, NodeWords) {
		panic("core: external log segment full; increase Config.LogSegWords or shorten epochs")
	}
	if cur>>16 != epochOf(w)>>16 {
		// The nodeEpoch enters a new 2^16-epoch window: a tag written in the
		// old one would alias an epoch of the new one, and a crash in that
		// epoch would apply a 65 536-epoch-old value. The pre-image just
		// logged covers both stores.
		n.store(fInCLL1, invalidValInCLL(cur))
		n.store(fInCLL2, invalidValInCLL(cur))
	}
	n.store(fEpoch, packEpochWord(cur, true, true))
	h.s.stats.LoggedNodes.Add(h.w, 1)
}

// logInterior records an interior node's pre-image (once per epoch).
func (h Handle) logInterior(n nodeRef, cur uint64) {
	if n.load(fLogEpoch) == cur {
		return
	}
	if !h.lw.LogObject(n.off, NodeWords) {
		panic("core: external log segment full; increase Config.LogSegWords or shorten epochs")
	}
	n.store(fLogEpoch, cur)
	h.s.stats.LoggedNodes.Add(h.w, 1)
}

// ---- lazy recovery (Listing 4) ----

// lazyRecoverLeaf repairs a leaf on its first access after a restart:
// apply InCLLp and the ValInCLLs for failed epochs and refresh the in-line
// undo state. The transient version word needs nothing: it lives in the
// store's DRAM table, which every Open allocates afresh.
func (s *Store) lazyRecoverLeaf(n nodeRef) {
	execBase := s.mgr.CurrentExec()
	w := n.load(fEpoch)
	if epochOf(w) >= execBase {
		return
	}
	lk := &s.recLocks[n.off%uint64(len(s.recLocks))]
	lk.Lock()
	defer lk.Unlock()
	w = n.load(fEpoch)
	ne := epochOf(w)
	if ne >= execBase {
		return
	}
	if s.mgr.IsFailed(ne) {
		n.store(fPerm, n.load(fPermInCLL))
	}
	high := ne >> 16 << 16
	for l := 0; l < 2; l++ {
		ic := n.load(inCLLOff(l))
		if idx := valInCLLIdx(ic); idx != invalidIdx && idx < LeafWidth {
			if s.mgr.IsFailed(high | valInCLLEp16(ic)) {
				n.store(valOff(idx), valInCLLWord(ic))
			}
		}
	}
	// Reset the in-line logs so a crash in the current execution restores
	// exactly this repaired state.
	n.store(fPermInCLL, uint64(n.perm()))
	n.store(fInCLL1, invalidValInCLL(execBase))
	n.store(fInCLL2, invalidValInCLL(execBase))
	n.store(fEpoch, packEpochWord(execBase, true, false))
	// Striped by node, not by worker (there is no handle here): every worker
	// repairs after a crash, and one shared stripe would ping-pong.
	s.stats.LazyRecoveries.Add(int(n.off/nvm.WordsPerLine), 1)
}
