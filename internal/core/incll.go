package core

// This file implements the paper's logging decision logic (§4.1, Listing 3)
// and lazy recovery (§4.3, Listing 4):
//
//   - beforePermChange runs before an insert or remove modifies the
//     permutation word, maintaining InCLLp (nodeEpoch, permutationInCLL,
//     logged), and names the free slot an insert may fill.
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
// A slot may be written by an insert or a relocation exactly when it was
// free at epoch start. permutationInCLL is the epoch-start permutation
// whenever the nodeEpoch is the current epoch and the leaf is not logged
// (before the leaf's first permutation touch, the permutation itself is), so
// it names those slots; the paper's Listing 3 approximates the same fact
// with one bit per leaf, cleared by any removal, after which every insert
// external-logs. Recovery restores permutationInCLL, so every slot it names
// must keep its epoch-start key and value — and it does: only slots free at
// epoch start are filled, and a slot live at epoch start has its value
// overwritten only under its line's ValInCLL or under a committed
// transaction intent, which recovery replays after the rollback
// (PutCommittedLocked). What a slot free at epoch
// start holds is irrelevant to recovery, so updating one (a key inserted or
// relocated this epoch) writes in place and claims no ValInCLL. An insert
// external-logs only when no such slot is left; a removal never does.
//
// A second hot slot in one value line is relocated instead of logged, which
// the paper's Listing 3 does not do either: layerPut writes the key and new
// value into a slot free at epoch start and one permutation store swaps it
// in for the old slot — an insert plus a removal, both covered by InCLLp.
// The old slot was live at epoch start, so nothing writes it again until
// the epoch commits. Only when no slot free at epoch start is left does the
// leaf external-log.

import "incll/internal/nvm"

// beforePermChange prepares the leaf for a permutation change in the
// current epoch and returns the free position an insert must fill. A
// removal needs nothing past the first touch and never logs; an insert
// takes a slot that was free at epoch start, and external-logs the leaf
// only when none is left. A transient store keeps no undo state: any free
// slot will do.
func (h Handle) beforePermChange(n nodeRef, isInsert bool) (freePos int) {
	s := h.s
	if s.transient {
		return n.perm().count()
	}
	cur := s.mgr.Current()
	w := n.load(fEpoch)
	p := n.perm()
	if epochOf(w) == cur {
		if loggedBit(w) || !isInsert {
			// Fully covered by the external log, or a removal, which
			// permutationInCLL already covers.
			return p.count()
		}
		if j := p.pickFree(perm(n.load(fPermInCLL)), -1); j >= 0 {
			return j
		}
		// Every free slot held a live entry at epoch start, which a crash
		// must restore: external log.
		h.logLeaf(n, cur)
		return p.count()
	}
	// First modification of this node in the current epoch.
	if s.cfg.DisableInCLL || cur>>16 != epochOf(w)>>16 {
		// LOGGING mode, or the 16-bit low-epoch encoding in the ValInCLLs
		// would be ambiguous (happens about once an hour at 64 ms epochs;
		// logLeaf resets the ValInCLLs into the new window).
		h.logLeaf(n, cur)
		return p.count()
	}
	// The ValInCLLs are left alone — their stale tags already invalidate
	// them — so a permutation change dirties line 0 only.
	h.capturePerm(n, p, cur)
	return p.count()
}

// capturePerm is a leaf's first permutation touch of the epoch: the
// epoch-start permutation p becomes permutationInCLL and the nodeEpoch
// moves to cur. Same cache line as the permutation the caller is about to
// modify: PCSO orders the capture, the stamp and the change for free.
func (h Handle) capturePerm(n nodeRef, p perm, cur uint64) {
	n.store(fPermInCLL, uint64(p))
	n.store(fEpoch, packEpochWord(cur, false))
	h.s.stats.InCLLPerm.Add(h.w, 1)
}

// beforeValUpdate prepares the leaf for overwriting vals[idx] in the
// current epoch, logging the old pointer in the ValInCLL that shares its
// cache line. Line 0 is only read: the nodeEpoch is not stamped for a value
// update, so a first touch dirties the updated slot's line alone.
//
// When that ValInCLL already holds another slot this epoch, it returns the
// free position the caller must relocate the entry to — write the new value
// into its slot and swap that slot into the permutation (layerPut) — under
// the InCLLp this prepares, so the update needs neither the external log nor
// a fence. Otherwise it returns -1 and the caller writes in place, as it
// always does on a transient store.
func (h Handle) beforeValUpdate(n nodeRef, idx int) (relocPos int) {
	s := h.s
	if s.transient {
		return -1
	}
	cur := s.mgr.Current()
	w := n.load(fEpoch)
	var start perm // the epoch-start permutation, once the leaf's is touched
	if epochOf(w) == cur {
		if loggedBit(w) {
			return -1 // fully covered by the external log this epoch
		}
		start = perm(n.load(fPermInCLL))
		if start.liveMask()&(1<<uint(idx)) == 0 {
			// Inserted (or relocated to) this epoch: a rollback frees the
			// slot again, so its value is irrelevant to recovery.
			return -1
		}
	} else if s.cfg.DisableInCLL || cur>>16 != epochOf(w)>>16 {
		// LOGGING mode, or the ValInCLL tags would leave the nodeEpoch's
		// 2^16-epoch window (logLeaf resets them into the new one).
		h.logLeaf(n, cur)
		return -1
	}
	line := valLine(idx)
	ic := n.load(inCLLOff(line))
	switch {
	case valInCLLEp16(ic) != cur&0xFFFF || valInCLLIdx(ic) == invalidIdx:
		// Claim the unused ValInCLL — unused because it was reset, or
		// because it was last written in an earlier epoch. Either way no
		// slot of this line was overwritten under it this epoch, and idx,
		// live at epoch start, was not written this epoch except under a
		// committed intent: inserts and relocations only fill slots free
		// at epoch start. So its current value is the epoch-start value or
		// one that the intent's replay overwrites after a rollback.
		n.store(inCLLOff(line), packValInCLL(n.val(idx), idx, cur))
		s.stats.InCLLVal.Add(h.w, 1)
	case valInCLLIdx(ic) == idx:
		// This slot's epoch-start value is already captured.
	default:
		// Two hot slots in one cache line: relocate into a slot that was
		// free at epoch start, preferably one in this value line, which
		// the claim has dirtied already.
		p := n.perm()
		if epochOf(w) != cur {
			start = p // first permutation touch: p is the epoch-start one
		}
		j := p.pickFree(start, line)
		if j < 0 {
			h.logLeaf(n, cur)
			return -1
		}
		if epochOf(w) != cur {
			h.capturePerm(n, p, cur)
		}
		return j
	}
	return -1
}

// logLeaf records the leaf's pre-image in the external log (once per
// epoch) and marks it logged. The entry is durable when this returns. A
// transient store logs nothing.
func (h Handle) logLeaf(n nodeRef, cur uint64) {
	if h.s.transient {
		return
	}
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
	n.store(fEpoch, packEpochWord(cur, true))
	h.s.stats.LoggedNodes.Add(h.w, 1)
}

// logInterior records an interior node's pre-image (once per epoch; never
// on a transient store).
func (h Handle) logInterior(n nodeRef, cur uint64) {
	if h.s.transient || n.load(fLogEpoch) == cur {
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
	n.store(fEpoch, packEpochWord(execBase, false))
	// Striped by node, not by worker (there is no handle here): every worker
	// repairs after a crash, and one shared stripe would ping-pong.
	s.stats.LazyRecoveries.Add(int(n.off/nvm.WordsPerLine), 1)
}
