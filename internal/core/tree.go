package core

import (
	"encoding/binary"

	"incll/internal/alloc"
	"incll/internal/extlog"
	"incll/internal/obs"
)

// Key slicing: each trie layer indexes up to 8 bytes of the key. A key is
// reduced to (ikey, kind) per layer, where ikey is the big-endian 8-byte
// slice (zero-padded) and kind encodes how much key remains:
//
//	kind 0..8:  the key ends in this layer with that many bytes
//	kindLayer:  the key continues; the slot holds a next-layer tree
//
// Two distinct keys can share an ikey but differ in kind ("abc" vs
// "abc\x00"); entries order by (ikey, kind), and kindLayer sorts after
// kind 8 because any continued key is strictly longer than any key that
// ends in this layer with the same 8 bytes.
const kindLayer = 9

func ikeyOf(k []byte) (uint64, uint8) {
	var buf [8]byte
	n := copy(buf[:], k)
	ik := binary.BigEndian.Uint64(buf[:])
	if len(k) > 8 {
		return ik, kindLayer
	}
	return ik, uint8(n)
}

// EncodeUint64 renders v as an 8-byte big-endian key (integer order equals
// key order), the form the YCSB workloads use.
func EncodeUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Handle is one worker's interface to the durable tree. Handles are not
// safe for concurrent use; give each worker its own (they own an external
// log segment and an allocator shard).
type Handle struct {
	s  *Store
	lw *extlog.Writer
	ah *alloc.Handle
	w  int // worker index; stripes the stats counters
}

func (h Handle) ref(off uint64) nodeRef { return nodeRef{a: h.s.arena, vt: &h.s.versions, off: off} }

// lapRetry charges the failed optimistic attempt — everything since the
// op's last phase boundary — to the retry phase. A no-op unless a sampled
// op is in flight on this worker, so the version-check failure paths call
// it unconditionally.
func (h Handle) lapRetry() { h.s.phases.Lap(h.w, obs.PhaseRetry) }

func (h Handle) rootCell0() rootCell { return rootCell{s: h.s, off: h.s.hdrOff} }

// ---- node construction ----

func (h Handle) newLeaf(cur uint64) nodeRef {
	off := h.ah.AllocNode()
	if off == 0 {
		panic("core: durable heap exhausted (increase Config.HeapWords)")
	}
	n := h.ref(off)
	n.store(fParent, 0)
	n.store(fMeta, metaLeaf)
	n.store(fNext, 0)
	// Born logged: a crash in the birth epoch reclaims the node through
	// the allocator's rollback, so no undo state is needed this epoch.
	n.store(fEpoch, packEpochWord(cur, true))
	n.store(fPermInCLL, uint64(permIdentity))
	n.store(fPerm, uint64(permIdentity))
	n.store(fHikey, ^uint64(0))
	n.store(fKinds, 0)
	n.store(fInCLL1, invalidValInCLL(cur))
	n.store(fInCLL2, invalidValInCLL(cur))
	return n
}

func (h Handle) newInterior(cur uint64) nodeRef {
	off := h.ah.AllocNode()
	if off == 0 {
		panic("core: durable heap exhausted (increase Config.HeapWords)")
	}
	n := h.ref(off)
	n.store(fParent, 0)
	n.store(fMeta, 0)
	n.store(fLogEpoch, cur) // born logged, same argument as newLeaf
	n.store(fNkeys, 0)
	return n
}

func (h Handle) newAnchor() uint64 {
	off := h.ah.Alloc(anchorPayloadWords)
	if off == 0 {
		panic("core: durable heap exhausted (increase Config.HeapWords)")
	}
	a := h.s.arena
	cur := h.s.mgr.Current()
	a.Store(off+aRoot, 0)
	a.Store(off+aRootInCLL, 0)
	a.Store(off+aRootEpoch, cur)
	return off
}

// ---- descent ----

// descend walks from root to the leaf that should cover ik and runs the
// leaf's lazy-recovery gate. Each visit touches the node first, so its
// misses overlap instead of following one another.
func (h Handle) descend(rootOff uint64, ik uint64) nodeRef {
	root := h.ref(rootOff)
	n := root
	for {
		n.touch()
		if n.isLeaf() {
			h.s.lazyRecoverLeaf(n)
			return n
		}
		v := n.stable()
		c := n.interiorChild(ik)
		if n.changed(v) || c == 0 {
			n = root
			continue
		}
		n = h.ref(c)
	}
}

// ---- Get ----

// Get returns the uint64 view of the value stored under k (see
// DecodeValue for the byte↔uint64 convention).
//
// The unlocked entry points (Get, AppendGet, PutBytes, Delete) are the
// latency-attribution sample sites: a 1-in-N op starts the lap clock here,
// charges its Enter wait to epoch_wait, and its tree work to descent (the
// optimistic-retry sites lap `retry` for every wasted attempt). The
// *Locked variants — which the transaction commit path applies through —
// are never sampled, so commit-side and op-side attribution cannot nest.
func (h Handle) Get(k []byte) (uint64, bool) {
	if ph := h.s.phases; ph.Begin(h.w) {
		h.s.mgr.Enter()
		ph.Lap(h.w, obs.PhaseEpochWait)
		v, ok := h.GetLocked(k)
		ph.End(h.w, obs.PhaseDescent)
		h.s.mgr.Exit()
		return v, ok
	}
	h.s.mgr.Enter()
	defer h.s.mgr.Exit()
	return h.GetLocked(k)
}

// GetLocked is Get for a caller that already holds the epoch guard
// (Store.Epochs().Enter) or otherwise excludes an epoch advance — the
// transaction manager's commit path.
func (h Handle) GetLocked(k []byte) (uint64, bool) {
	h.s.stats.Gets.Add(h.w, 1)
	vw, ok := h.layerGet(h.rootCell0(), k, nil)
	if !ok {
		return 0, false
	}
	return h.vwUint64(vw), true
}

// GetBytes returns a copy of the byte value stored under k.
func (h Handle) GetBytes(k []byte) ([]byte, bool) {
	return h.AppendGet(nil, k)
}

// AppendGet appends k's value bytes to dst, returning the extended slice;
// the allocation-free form of GetBytes.
func (h Handle) AppendGet(dst []byte, k []byte) ([]byte, bool) { return h.AppendGetPos(dst, k, nil) }

// AppendGetPos is AppendGet that also leaves k's position in *pos (see Pos
// and AppendGetLocked); a nil pos records nothing.
func (h Handle) AppendGetPos(dst []byte, k []byte, pos *Pos) ([]byte, bool) {
	if ph := h.s.phases; ph.Begin(h.w) {
		h.s.mgr.Enter()
		ph.Lap(h.w, obs.PhaseEpochWait)
		out, ok, _ := h.AppendGetLocked(dst, k, pos)
		ph.End(h.w, obs.PhaseDescent)
		h.s.mgr.Exit()
		return out, ok
	}
	h.s.mgr.Enter()
	defer h.s.mgr.Exit()
	out, ok, _ := h.AppendGetLocked(dst, k, pos)
	return out, ok
}

// Pos is where a read left its key: the last layer's covering leaf, the
// leaf's version word as the read saw it (lock bit clear) and the key's
// index in the leaf's permutation, -1 when the key was absent. The zero Pos
// holds no position.
//
// Nodes are never freed, a leaf's version word only grows, and every
// insert, removal, relocation and split of the leaf moves it. So while the
// word reads the same, the leaf still covers the key and its permutation is
// the one the read saw: the key is still at its index, or still absent. An
// in-place value update does not move the word, so a reader at a position
// still reads and compares the value.
type Pos struct {
	leaf, ver uint64
	idx       int
}

// AppendGetLocked is AppendGet under a caller-held epoch guard. A non-nil
// pos is in and out: a position an earlier read left there is read first,
// without a descent, and when its leaf has moved (stale) the descent runs
// as usual. Either way *pos is left holding k's current position.
func (h Handle) AppendGetLocked(dst []byte, k []byte, pos *Pos) (out []byte, found, stale bool) {
	h.s.stats.Gets.Add(h.w, 1)
	var vw uint64
	if pos != nil && pos.leaf != 0 {
		vw, found, stale = h.readAt(*pos)
		if stale {
			*pos = Pos{}
		}
	}
	if pos == nil || pos.leaf == 0 {
		vw, found = h.layerGet(h.rootCell0(), k, pos)
	}
	if !found {
		return dst, false, stale
	}
	return h.appendValue(dst, vw), true, stale
}

// readAt reads the value word at pos; stale when pos's leaf has moved since
// the position was taken (a writer holding the leaf mid-change counts).
func (h Handle) readAt(pos Pos) (vw uint64, found, stale bool) {
	n := h.ref(pos.leaf)
	if n.changed(pos.ver) {
		return 0, false, true
	}
	if pos.idx < 0 {
		return 0, false, false
	}
	vw = n.val(n.perm().slot(pos.idx))
	if n.changed(pos.ver) {
		return 0, false, true
	}
	return vw, true, false
}

// layerGet resolves k to its value word, leaving its position in *pos when
// pos is non-nil. Dereferencing the word after the leaf's version check is
// safe while the epoch guard is held: published heap blocks are immutable
// and freed ones survive until the next boundary.
func (h Handle) layerGet(cell rootCell, k []byte, pos *Pos) (uint64, bool) {
	ik, kind := ikeyOf(k)
retry:
	rootOff := cell.root()
	if rootOff == 0 {
		return 0, false
	}
	n := h.descend(rootOff, ik)
readLeaf:
	v := n.stable()
	if ik >= n.hikey() {
		nn := n.next()
		if n.changed(v) {
			h.lapRetry()
			goto retry
		}
		if nn != 0 {
			n = h.ref(nn)
			n.touch()
			h.s.lazyRecoverLeaf(n)
			goto readLeaf
		}
	}
	p := n.perm()
	idx, found := n.leafSearch(ik, kind, p)
	if !found {
		if n.changed(v) {
			h.lapRetry()
			goto retry
		}
		if pos != nil {
			*pos = Pos{leaf: n.off, ver: v &^ uint64(vLocked), idx: -1}
		}
		return 0, false
	}
	vw := n.val(p.slot(idx))
	if n.changed(v) {
		h.lapRetry()
		goto retry
	}
	if kind == kindLayer {
		return h.layerGet(rootCell{s: h.s, off: vw}, k[8:], pos)
	}
	if pos != nil {
		*pos = Pos{leaf: n.off, ver: v &^ uint64(vLocked), idx: idx}
	}
	return vw, true
}

// ---- Put ----

// Put stores v under k (as its minimal big-endian byte value — inline in
// the leaf whenever v < 2^40); reports whether k was newly inserted. The
// encoding is built in the worker's value buffer: a stack buffer would
// escape through the ChangeSink call, costing an allocation per Put.
func (h Handle) Put(k []byte, v uint64) bool {
	return h.PutBytes(k, AppendValueUint64(h.s.valueBufs[h.w].b[:0], v))
}

// PutLocked is Put under a caller-held epoch guard, or with no guard on a
// store whose epochs never advance (the transient MT baseline).
func (h Handle) PutLocked(k []byte, v uint64) bool {
	return h.PutBytesLocked(k, AppendValueUint64(h.s.valueBufs[h.w].b[:0], v))
}

// PutBytes stores the byte value v (len ≤ MaxValueBytes) under k; reports
// whether k was newly inserted.
func (h Handle) PutBytes(k []byte, v []byte) bool {
	if ph := h.s.phases; ph.Begin(h.w) {
		h.s.mgr.Enter()
		ph.Lap(h.w, obs.PhaseEpochWait)
		inserted := h.PutBytesLocked(k, v)
		ph.End(h.w, obs.PhaseDescent)
		h.s.mgr.Exit()
		return inserted
	}
	h.s.mgr.Enter()
	defer h.s.mgr.Exit()
	return h.PutBytesLocked(k, v)
}

// PutBytesLocked is PutBytes under a caller-held epoch guard.
func (h Handle) PutBytesLocked(k []byte, v []byte) bool { return h.put(k, v, false) }

// PutCommittedLocked is PutBytesLocked for a write that a durable,
// committed transaction intent already covers: the intent's fence completed
// before this call, and recovery replays the intent over any rollback of
// the current epoch. An update of an inline value to an inline value
// therefore needs no undo and is stored in place — no ValInCLL claim, no
// relocation, no external log. Every other write (inserts, heap values on
// either side, layer anchors) takes PutBytesLocked's path. See DESIGN.md §6.
//
// A non-nil pos holding a position where a read found k is tried first:
// the leaf is locked and, if its version still reads as the position
// recorded, v is written there without a descent. When the leaf has moved
// (stale) the write descends as usual.
func (h Handle) PutCommittedLocked(k []byte, v []byte, pos *Pos) (stale bool) {
	if pos != nil && pos.leaf != 0 && pos.idx >= 0 {
		if h.putAt(*pos, k, v) {
			return false
		}
		stale = true
	}
	h.put(k, v, true)
	return stale
}

// put is the write chokepoint of PutBytesLocked and PutCommittedLocked.
func (h Handle) put(k []byte, v []byte, covered bool) bool {
	if len(k) > MaxKeyBytes {
		// Enforced at the write chokepoint so no path (including the
		// uint64 view) can create a key the validated, error-returning
		// paths refuse to touch again.
		panic("core: key exceeds MaxKeyBytes")
	}
	h.s.stats.Puts.Add(h.w, 1)
	inserted := h.layerPut(h.rootCell0(), k, k, v, covered)
	if inserted {
		h.s.size.Add(1)
	}
	return inserted
}

// putAt is PutCommittedLocked's write of k at pos, where a read found it
// (so k passed put's length check when it was inserted); it reports false,
// having written nothing, when the leaf has moved since.
func (h Handle) putAt(pos Pos, k, val []byte) bool {
	n := h.ref(pos.leaf)
	n.lock()
	if n.changed(pos.ver) {
		n.unlock()
		return false
	}
	h.s.stats.Puts.Add(h.w, 1)
	// The position is in the key's last layer, which holds its last one
	// to eight bytes.
	ik, kind := ikeyOf(k[max(len(k)-1, 0)/8*8:])
	h.putFound(n, n.perm(), pos.idx, ik, kind, k, val, true)
	return true
}

// layerPut installs val under k within cell's layer. full is the complete
// key (k is its per-layer suffix), carried down so the change publication
// — which must happen inside the leaf-locked region, where concurrent
// writers of the same key are serialized, so the journal order equals the
// apply order — can name the key a subscriber would use. covered marks a
// write a durable committed intent redoes after any rollback (see
// PutCommittedLocked).
func (h Handle) layerPut(cell rootCell, full, k []byte, val []byte, covered bool) bool {
	ik, kind := ikeyOf(k)
retry:
	rootOff := cell.root()
	if rootOff == 0 {
		cur := h.s.mgr.Current()
		fresh := h.newLeaf(cur)
		if !cell.casRoot(0, fresh.off, cur) {
			h.ah.FreeNode(fresh.off)
			h.lapRetry()
		}
		goto retry
	}
	n := h.descend(rootOff, ik)
	n = h.lockCovering(n, ik)
	p := n.perm()
	pos, found := n.leafSearch(ik, kind, p)
	if found {
		if kind == kindLayer {
			vw := n.val(p.slot(pos))
			n.unlock()
			return h.layerPut(rootCell{s: h.s, off: vw}, full, k[8:], val, covered)
		}
		h.putFound(n, p, pos, ik, kind, full, val, covered)
		return false
	}
	// Build the slot payload before exposing it.
	var valWord uint64
	if kind == kindLayer {
		valWord = h.newAnchor()
		// The recursion publishes the change from the sub-layer's locked
		// leaf; this leaf's lock already excludes same-key competitors.
		h.layerPut(rootCell{s: h.s, off: valWord}, full, k[8:], val, covered)
	} else {
		valWord = h.newValueWord(val)
	}
	if p.count() < LeafWidth {
		j := h.beforePermChange(n, true)
		slot := p.slot(j)
		n.setIkey(slot, ik)
		n.setKind(slot, kind)
		n.setVal(slot, valWord)
		n.markInsert()
		n.store(fPerm, uint64(p.insertFrom(pos, j)))
		if kind != kindLayer {
			h.s.publish(ChangePut, full, val)
		}
		n.unlock()
		return true
	}
	h.splitLeafInsert(cell, n, ik, kind, valWord, pos, full, val)
	return true
}

// putFound overwrites the value of the key (ik, kind) at index pos of the
// locked leaf n, whose permutation is p, and unlocks n. full is the
// complete key, for the change publication.
func (h Handle) putFound(n nodeRef, p perm, pos int, ik uint64, kind uint8, full, val []byte, covered bool) {
	slot := p.slot(pos)
	vw := n.val(slot)
	if covered && vwIsInline(vw) && len(val) <= MaxInlineBytes {
		// Inline over inline under a committed intent: whatever a
		// rollback leaves in the slot, the intent's replay overwrites.
		// No heap block is involved, so none can leak or dangle.
		n.setVal(slot, inlineVW(val))
	} else if j := h.beforeValUpdate(n, slot); j >= 0 {
		// Relocate: the entry moves to a free slot and the permutation
		// swaps it in, leaving the old slot's epoch-start value intact.
		// A slot this key vacated in an earlier epoch still holds its
		// ikey and kind: moving back writes neither, so the ikey line
		// stays clean.
		ns := p.slot(j)
		if n.ikey(ns) != ik {
			n.setIkey(ns, ik)
		}
		if n.kind(ns) != kind {
			n.setKind(ns, kind)
		}
		n.setVal(ns, h.newValueWord(val))
		n.markInsert()
		n.store(fPerm, uint64(p.swapFree(pos, j)))
	} else {
		n.setVal(slot, h.newValueWord(val))
	}
	h.s.publish(ChangePut, full, val)
	n.unlock()
	h.freeValueWord(vw)
}

// lockCovering locks n and walks right until n covers ik (B-link).
func (h Handle) lockCovering(n nodeRef, ik uint64) nodeRef {
	n.lock()
	for ik >= n.hikey() {
		nn := n.next()
		if nn == 0 {
			return n
		}
		m := h.ref(nn)
		m.touch()
		h.s.lazyRecoverLeaf(m)
		m.lock()
		n.unlock()
		n = m
	}
	return n
}

// ---- split ----

func (h Handle) splitLeafInsert(cell rootCell, n nodeRef, ik uint64, kind uint8, valWord uint64, pos int, full, val []byte) {
	cur := h.s.mgr.Current()
	// Splits restructure more than the InCLLs can express: log the whole
	// pre-image first (§4.2). The fresh sibling needs no log — a failed
	// birth epoch reclaims it through the allocator.
	h.logLeaf(n, cur)
	n.markSplit()
	nn := h.newLeaf(cur)
	nn.lock()
	p := n.perm()

	sp := splitPoint(n, p)
	moved := 0
	for i := sp; i < LeafWidth; i++ {
		s := p.slot(i)
		nn.setIkey(moved, n.ikey(s))
		nn.setKind(moved, n.kind(s))
		nn.setVal(moved, n.val(s))
		moved++
	}
	nn.store(fPerm, uint64(identityPrefix(moved)))
	splitIkey := nn.ikey(0)

	// Publish the B-link before shrinking n so no key is ever unreachable.
	nn.store(fHikey, n.hikey())
	nn.store(fNext, n.next())
	n.store(fNext, nn.off)
	n.store(fHikey, splitIkey)
	n.store(fPerm, uint64(p.truncate(sp)))

	target, tpos := n, pos
	if ik >= splitIkey {
		target, tpos = nn, pos-sp
	}
	// Both leaves are logged this epoch: any free slot will do.
	tp := target.perm()
	slot := tp.slot(tp.count())
	target.setIkey(slot, ik)
	target.setKind(slot, kind)
	target.setVal(slot, valWord)
	target.markInsert()
	target.store(fPerm, uint64(tp.insertFrom(tpos, tp.count())))

	h.insertUpward(cell, n, nn, splitIkey)
	if kind != kindLayer {
		// Publish before the unlocks, like the in-leaf insert paths: the
		// leaf locks serialize same-key writers, so journal order equals
		// apply order. (Layer entries publish from the sub-layer insert.)
		h.s.publish(ChangePut, full, val)
	}
	nn.unlock()
	n.unlock()
}

// splitPoint picks a near-middle position whose boundary ikeys differ, so
// interior routing by ikey never separates equal ikeys. One ikey occupies
// at most ten slots (kinds 0..8 plus a layer), so a point always exists.
func splitPoint(n nodeRef, p perm) int {
	mid := LeafWidth / 2
	for d := 0; d < LeafWidth; d++ {
		for _, sp := range [2]int{mid + d, mid - d} {
			if sp <= 0 || sp >= p.count() {
				continue
			}
			if n.ikey(p.slot(sp-1)) != n.ikey(p.slot(sp)) {
				return sp
			}
		}
	}
	panic("core: no valid split point (more equal ikeys than a leaf can hold)")
}

// insertUpward installs the separator (splitIkey, right) above the split
// pair left/right (both locked by the caller; locks retained).
func (h Handle) insertUpward(cell rootCell, left, right nodeRef, splitIkey uint64) {
	cur := h.s.mgr.Current()
	if left.parent() == 0 {
		nr := h.newInterior(cur)
		nr.store(fNkeys, 1)
		nr.setRkey(0, splitIkey)
		nr.setChild(0, left.off)
		nr.setChild(1, right.off)
		// left is already logged (leaf split) or logged by the interior
		// path; right is freshly allocated.
		left.store(fParent, nr.off)
		right.store(fParent, nr.off)
		cell.setRoot(nr.off, cur)
		return
	}
	p := h.lockParent(left)
	h.logInterior(p, cur)
	right.store(fParent, p.off)
	nk := p.nkeys()
	pos := 0
	for pos < nk && splitIkey >= p.rkey(pos) {
		pos++
	}
	if nk < intWidth {
		p.markInsert()
		for i := nk; i > pos; i-- {
			p.setRkey(i, p.rkey(i-1))
			p.setChild(i+1, p.child(i))
		}
		p.setRkey(pos, splitIkey)
		p.setChild(pos+1, right.off)
		p.store(fNkeys, uint64(nk+1))
		p.unlock()
		return
	}
	h.splitInterior(cell, p, splitIkey, right, pos)
}

// lockParent locks child's parent, retrying around concurrent parent
// splits that reassign the pointer.
func (h Handle) lockParent(child nodeRef) nodeRef {
	for {
		poff := child.parent()
		p := h.ref(poff)
		p.lock()
		if child.parent() == poff {
			return p
		}
		p.unlock()
	}
}

// splitInterior splits the full, locked, already-logged interior p while
// inserting (key, child) at position pos. Consumes p's lock.
func (h Handle) splitInterior(cell rootCell, p nodeRef, key uint64, child nodeRef, pos int) {
	cur := h.s.mgr.Current()
	p.markSplit()
	var keys [intWidth + 1]uint64
	var kids [intWidth + 2]uint64
	for i := 0; i < intWidth; i++ {
		keys[i] = p.rkey(i)
	}
	for i := 0; i <= intWidth; i++ {
		kids[i] = p.child(i)
	}
	copy(keys[pos+1:], keys[pos:intWidth])
	keys[pos] = key
	copy(kids[pos+2:], kids[pos+1:intWidth+1])
	kids[pos+1] = child.off

	half := (intWidth + 1) / 2
	promoted := keys[half]

	pp := h.newInterior(cur)
	pp.lock()
	rn := 0
	for i := half + 1; i < intWidth+1; i++ {
		pp.setRkey(rn, keys[i])
		rn++
	}
	for i := half + 1; i < intWidth+2; i++ {
		c := h.ref(kids[i])
		pp.setChild(i-half-1, c.off)
		// Reassigning a child's parent pointer mutates that child: log its
		// pre-image first so the pointer rolls back with everything else.
		// Nobody may have visited a leaf child since a restart, and logging
		// stamps it with the current epoch, which closes its recovery gate:
		// repair it first.
		if c.isLeaf() {
			h.s.lazyRecoverLeaf(c)
			h.logLeaf(c, cur)
		} else {
			h.logInterior(c, cur)
		}
		c.store(fParent, pp.off)
	}
	pp.store(fNkeys, uint64(rn))

	for i := 0; i < half; i++ {
		p.setRkey(i, keys[i])
	}
	for i := 0; i <= half; i++ {
		p.setChild(i, kids[i])
	}
	p.store(fNkeys, uint64(half))

	h.insertUpward(cell, p, pp, promoted)
	pp.unlock()
	p.unlock()
}

// ---- Delete ----

// Delete removes k; reports whether it was present. Emptied leaves remain
// in the tree, as in the transient baseline.
func (h Handle) Delete(k []byte) bool {
	if ph := h.s.phases; ph.Begin(h.w) {
		h.s.mgr.Enter()
		ph.Lap(h.w, obs.PhaseEpochWait)
		removed := h.DeleteLocked(k)
		ph.End(h.w, obs.PhaseDescent)
		h.s.mgr.Exit()
		return removed
	}
	h.s.mgr.Enter()
	defer h.s.mgr.Exit()
	return h.DeleteLocked(k)
}

// DeleteLocked is Delete for a caller that already holds the epoch guard
// (Store.Epochs().Enter) or otherwise excludes an epoch advance.
func (h Handle) DeleteLocked(k []byte) bool {
	h.s.stats.Deletes.Add(h.w, 1)
	removed := h.layerDelete(h.rootCell0(), k, k)
	if removed {
		h.s.size.Add(-1)
	}
	return removed
}

func (h Handle) layerDelete(cell rootCell, full, k []byte) bool {
	ik, kind := ikeyOf(k)
	rootOff := cell.root()
	if rootOff == 0 {
		return false
	}
	n := h.descend(rootOff, ik)
	n = h.lockCovering(n, ik)
	p := n.perm()
	pos, found := n.leafSearch(ik, kind, p)
	if !found {
		n.unlock()
		return false
	}
	slot := p.slot(pos)
	vw := n.val(slot)
	if kind == kindLayer {
		n.unlock()
		return h.layerDelete(rootCell{s: h.s, off: vw}, full, k[8:])
	}
	h.beforePermChange(n, false)
	n.markInsert()
	n.store(fPerm, uint64(p.remove(pos)))
	// Publish inside the locked region (see layerPut): the leaf lock
	// serializes same-key writers, so journal order equals apply order.
	h.s.publish(ChangeDelete, full, nil)
	n.unlock()
	h.freeValueWord(vw)
	return true
}

// ---- cursor refill walks ----
//
// scanLayer and scanLayerRev are the cursor's refill engine (Iter.fill):
// each call walks at most one batch under the caller's epoch guard.

type scanEntry struct {
	ikey uint64
	kind uint8
	vw   uint64
}

// scanLayer walks one layer ascending. kb is the shared key buffer: the
// first plen bytes hold this layer's prefix, and each entry's full key is
// built in place — so the key passed to fn is scratch, valid only during
// the callback (no per-entry allocation).
func (h Handle) scanLayer(cell rootCell, kb *[]byte, plen int, start []byte, max int, visited *int, fn func([]byte, uint64) bool) bool {
	rootOff := cell.root()
	if rootOff == 0 {
		return true
	}
	var startIk uint64
	var startKind uint8
	if len(start) > 0 {
		startIk, startKind = ikeyOf(start)
	}
	n := h.descend(rootOff, startIk)

	// A leaf snapshot lives on the stack: a 4-bit permutation count admits
	// at most LeafWidth+1 entries, whatever a racing writer leaves in it.
	var snap [LeafWidth + 1]scanEntry
	for n.valid() {
	again:
		v := n.stable()
		if startIk >= n.hikey() {
			nn := n.next()
			if n.changed(v) {
				goto again
			}
			if nn != 0 {
				n = h.ref(nn)
				h.s.lazyRecoverLeaf(n)
				goto again
			}
		}
		p := n.perm()
		cnt := p.count()
		for i := 0; i < cnt; i++ {
			s := p.slot(i)
			snap[i] = scanEntry{n.ikey(s), n.kind(s), n.val(s)}
		}
		next := n.next()
		if n.changed(v) {
			goto again
		}
		// next is validated: its lines come in while this leaf's entries
		// are delivered.
		h.ref(next).touch()

		for _, e := range snap[:cnt] {
			if len(start) > 0 && keyCmp(e.ikey, e.kind, startIk, startKind) < 0 {
				if !(e.kind == kindLayer && e.ikey == startIk) {
					continue
				}
			}
			if *visited >= max {
				return false
			}
			*kb = appendIkey((*kb)[:plen], e.ikey, e.kind)
			if e.kind == kindLayer {
				var rest []byte
				if len(start) > 8 && e.ikey == startIk && startKind == kindLayer {
					rest = start[8:]
				}
				if !h.scanLayer(rootCell{s: h.s, off: e.vw}, kb, plen+8, rest, max, visited, fn) {
					return false
				}
				continue
			}
			*visited++
			if !fn(*kb, e.vw) {
				return false
			}
		}
		n = h.ref(next)
		if n.valid() {
			h.s.lazyRecoverLeaf(n)
		}
		start = nil
		startIk, startKind = 0, 0
	}
	return true
}

// ---- reverse scan ----
//
// The tree has no leftward links (B-link next pointers only point right),
// so descending iteration walks each layer's subtrees right-to-left from
// the interior nodes, with the same optimistic version validation the
// forward descent uses. Two structural invariants make this sound without
// hand-over-hand locking:
//
//   - Entries only ever move right (leaf splits), never left (emptied
//     leaves stay in the tree; there are no merges). A leaf reached
//     through a stale interior snapshot therefore still finds everything
//     it ever held by walking its B-link chain rightward.
//
//   - Equal ikeys never split across leaves (splitPoint), so once a leaf
//     snapshot is taken, every entry between two of its keys is in the
//     snapshot.
//
// The walk carries a running exclusive upper bound that tightens as
// entries are delivered; re-reading a leaf through a racing split then
// skips everything already visited, so no entry is delivered twice.

// revBound is the exclusive upper bound of a reverse layer walk,
// layer-relative: only entries strictly below (ik, kind) are delivered.
type revBound struct {
	set  bool
	ik   uint64
	kind uint8
	// rest is the bound's remainder within the sub-layer, meaningful when
	// kind == kindLayer and the walk reaches the boundary layer entry.
	rest []byte
	// whole excludes entries equal to (ik, kind) entirely — they have been
	// fully visited (or were excluded to begin with).
	whole bool
}

// boundFor renders an exclusive byte-key bound layer-relative.
func boundFor(until []byte) revBound {
	ik, kind := ikeyOf(until)
	b := revBound{set: true, ik: ik, kind: kind}
	if kind == kindLayer {
		b.rest = until[8:]
	}
	return b
}

// admitsBeyond reports whether a right sibling past hikey hk can still
// hold entries under the bound (its entries all have ikey ≥ hk).
func (b *revBound) admitsBeyond(hk uint64) bool {
	if !b.set {
		return true
	}
	return hk < b.ik || (hk == b.ik && b.kind > 0)
}

// scanLayerRev visits one layer's keys strictly below b (layer-relative;
// unset means from the end of the layer) in descending order, recursing
// into sub-layers. Like scanLayer, kb is the shared key buffer (prefix in
// its first plen bytes): the key passed to fn is scratch, valid only
// during the callback. sc is the caller's leaf-snapshot scratch, used as
// a stack by the nested walks (see revLeafChain). Returns false when fn or
// the max cut stopped the walk.
func (h Handle) scanLayerRev(cell rootCell, kb *[]byte, sc *[]scanEntry, plen int, b *revBound, max int, visited *int, fn func([]byte, uint64) bool) bool {
	rootOff := cell.root()
	if rootOff == 0 {
		return true
	}
	return h.revSubtree(h.ref(rootOff), kb, sc, plen, b, max, visited, fn)
}

// revSubtree walks subtree n right-to-left, delivering entries under *b
// and tightening the bound as it goes.
func (h Handle) revSubtree(n nodeRef, kb *[]byte, sc *[]scanEntry, plen int, b *revBound, max int, visited *int, fn func([]byte, uint64) bool) bool {
	if n.isLeaf() {
		return h.revLeafChain(n, kb, sc, plen, b, max, visited, fn)
	}
retry:
	v := n.stable()
	nk := n.nkeys()
	if nk > intWidth {
		nk = intWidth // torn read during an update; version check retries
	}
	var rkeys [intWidth]uint64
	var kids [intWidth + 1]uint64
	for i := 0; i < nk; i++ {
		rkeys[i] = n.rkey(i)
	}
	for i := 0; i <= nk; i++ {
		kids[i] = n.child(i)
	}
	if n.changed(v) {
		h.lapRetry()
		goto retry
	}
	for i := nk; i >= 0; i-- {
		// Child i covers ikeys ≥ rkeys[i-1]: skip subtrees wholly at or
		// above the (tightening) bound — except the boundary subtree, whose
		// equal-ikey entries may still qualify on kind.
		if b.set && i > 0 && rkeys[i-1] > b.ik {
			continue
		}
		if kids[i] == 0 {
			h.lapRetry()
			goto retry
		}
		if !h.revSubtree(h.ref(kids[i]), kb, sc, plen, b, max, visited, fn) {
			return false
		}
	}
	return true
}

// revLeafChain snapshots the B-link chain from n rightward while siblings
// may still hold entries under the bound, then delivers the snapshots in
// reverse — so entries a racing split moved right of n are still seen,
// and entries above the bound (already delivered through their new home)
// are skipped.
//
// The chain's snapshots are appended to *sc above whatever the enclosing
// layers' walks hold there and popped on return; a sub-layer walk may grow
// the slice under this one, so entries are read by index, never through a
// retained subslice.
func (h Handle) revLeafChain(n nodeRef, kb *[]byte, sc *[]scanEntry, plen int, b *revBound, max int, visited *int, fn func([]byte, uint64) bool) bool {
	base := len(*sc)
	defer func() { *sc = (*sc)[:base] }()
	// One sub-layer bound for the whole chain, declared outside the delivery
	// loop: a variable of the loop body whose address reaches this recursive
	// family of functions is heap-allocated per entry.
	var sub revBound
	for n.valid() {
		h.s.lazyRecoverLeaf(n)
		mark := len(*sc)
	again:
		*sc = (*sc)[:mark]
		v := n.stable()
		p := n.perm()
		for i := 0; i < p.count(); i++ {
			s := p.slot(i)
			*sc = append(*sc, scanEntry{n.ikey(s), n.kind(s), n.val(s)})
		}
		next := n.next()
		hk := n.hikey()
		if n.changed(v) {
			goto again
		}
		if next == 0 || !b.admitsBeyond(hk) {
			break
		}
		n = h.ref(next)
	}
	// Leaves in chain order, entries in key order: the chain in reverse is
	// the flat snapshot in reverse.
	for i := len(*sc) - 1; i >= base; i-- {
		e := (*sc)[i]
		if b.set {
			c := keyCmp(e.ikey, e.kind, b.ik, b.kind)
			if c > 0 {
				continue
			}
			if c == 0 {
				if b.whole || e.kind != kindLayer {
					continue
				}
				// The boundary layer entry: only its keys below the
				// bound's remainder qualify.
				*kb = appendIkey((*kb)[:plen], e.ikey, e.kind)
				sub = boundFor(b.rest)
				if !h.scanLayerRev(rootCell{s: h.s, off: e.vw}, kb, sc, plen+8, &sub, max, visited, fn) {
					return false
				}
				*b = revBound{set: true, ik: e.ikey, kind: e.kind, whole: true}
				continue
			}
		}
		*kb = appendIkey((*kb)[:plen], e.ikey, e.kind)
		if e.kind == kindLayer {
			sub = revBound{}
			if !h.scanLayerRev(rootCell{s: h.s, off: e.vw}, kb, sc, plen+8, &sub, max, visited, fn) {
				return false
			}
		} else {
			if *visited >= max {
				return false
			}
			*visited++
			if !fn(*kb, e.vw) {
				return false
			}
		}
		*b = revBound{set: true, ik: e.ikey, kind: e.kind, whole: true}
	}
	return true
}

// appendIkey appends the key bytes an (ikey, kind) pair stands for: the
// top kind bytes of ik, all eight for a layer entry. It runs once per
// scanned entry, consumed or not, so it writes the whole word and cuts it
// to length instead of looping over bytes.
func appendIkey(dst []byte, ik uint64, kind uint8) []byte {
	nb := int(kind)
	if kind == kindLayer {
		nb = 8
	}
	n := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, ik)
	return dst[:n+nb]
}
