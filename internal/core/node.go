package core

import (
	"runtime"
	"sync/atomic"

	"incll/internal/alloc"
	"incll/internal/nvm"
)

// nodeRef wraps an arena offset with the store's arena for field access.
// All durable node state is read and written through these accessors, so
// every mutation goes through the simulated cache. The node's transient
// version word is the exception: it lives in the store's DRAM table vt.
type nodeRef struct {
	a   *nvm.Arena
	vt  *versionTable
	off uint64
}

func (n nodeRef) valid() bool { return n.off != 0 }

func (n nodeRef) load(f uint64) uint64     { return n.a.Load(n.off + f) }
func (n nodeRef) store(f uint64, v uint64) { n.a.Store(n.off+f, v) }

func (n nodeRef) isLeaf() bool   { return n.load(fMeta)&metaLeaf != 0 }
func (n nodeRef) parent() uint64 { return n.load(fParent) }

// ---- version word: transient lock + optimistic validation ----

// versionTable holds every node's version word in DRAM, one slot per
// node-sized span of the heap. Nothing durable ever reads a version word —
// it is a lock plus the counters optimistic readers validate against — and
// in the arena every locked write would dirty the node's line 0 for it.
// Node payloads are NodeClassWords apart at least, so no two nodes share a
// slot, and each Open allocates a fresh, zeroed table: a lock held at a
// crash is gone by construction.
type versionTable struct {
	heapOff uint64
	words   []atomic.Uint64
}

func newVersionTable(heapOff, heapWords uint64) versionTable {
	return versionTable{
		heapOff: heapOff,
		words:   make([]atomic.Uint64, (heapWords+alloc.NodeClassWords-1)/alloc.NodeClassWords),
	}
}

// slot returns the version word of the node whose payload is at off.
func (t *versionTable) slot(off uint64) *atomic.Uint64 {
	return &t.words[(off-t.heapOff)/alloc.NodeClassWords]
}

func (n nodeRef) version() *atomic.Uint64 { return n.vt.slot(n.off) }

// stable spins until the node is not mid-insert/mid-split.
func (n nodeRef) stable() uint64 {
	ver := n.version()
	for {
		v := ver.Load()
		if v&(vInserting|vSplitting) == 0 {
			return v
		}
		runtime.Gosched()
	}
}

func (n nodeRef) changed(v uint64) bool {
	return n.version().Load()&^uint64(vLocked) != v&^uint64(vLocked)
}

func (n nodeRef) lock() {
	ver := n.version()
	for {
		v := ver.Load()
		if v&vLocked == 0 && ver.CompareAndSwap(v, v|vLocked) {
			return
		}
		runtime.Gosched()
	}
}

func (n nodeRef) unlock() {
	ver := n.version()
	v := ver.Load()
	if v&vInserting != 0 {
		v += vInsertLo
	}
	if v&vSplitting != 0 {
		v += vSplitLo
	}
	ver.Store(v &^ uint64(vLocked|vInserting|vSplitting))
}

func (n nodeRef) markInsert() { ver := n.version(); ver.Store(ver.Load() | vInserting) }
func (n nodeRef) markSplit()  { ver := n.version(); ver.Store(ver.Load() | vSplitting) }

// ---- leaf accessors ----

func (n nodeRef) perm() perm        { return perm(n.load(fPerm)) }
func (n nodeRef) hikey() uint64     { return n.load(fHikey) }
func (n nodeRef) next() uint64      { return n.load(fNext) }
func (n nodeRef) ikey(s int) uint64 { return n.load(fIkeys + uint64(s)) }
func (n nodeRef) kind(s int) uint8  { return kindAt(n.load(fKinds), s) }
func (n nodeRef) val(s int) uint64  { return n.load(valOff(s)) }

func (n nodeRef) setIkey(s int, v uint64) { n.store(fIkeys+uint64(s), v) }
func (n nodeRef) setKind(s int, k uint8)  { n.store(fKinds, withKind(n.load(fKinds), s, k)) }
func (n nodeRef) setVal(s int, v uint64)  { n.store(valOff(s), v) }

// leafSearch finds the key-order position of (ikey, kind) in the leaf.
func (n nodeRef) leafSearch(ik uint64, kind uint8, p perm) (int, bool) {
	lo, hi := 0, p.count()
	for lo < hi {
		mid := (lo + hi) / 2
		s := p.slot(mid)
		c := keyCmp(ik, kind, n.ikey(s), n.kind(s))
		switch {
		case c == 0:
			return mid, true
		case c < 0:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// ---- interior accessors ----

func (n nodeRef) nkeys() int         { return int(n.load(fNkeys)) }
func (n nodeRef) rkey(i int) uint64  { return n.load(fRkeys + uint64(i)) }
func (n nodeRef) child(i int) uint64 { return n.load(fChildren + uint64(i)) }

func (n nodeRef) setRkey(i int, v uint64)  { n.store(fRkeys+uint64(i), v) }
func (n nodeRef) setChild(i int, v uint64) { n.store(fChildren+uint64(i), v) }

// interiorChild returns the child offset covering ik.
func (n nodeRef) interiorChild(ik uint64) uint64 {
	nk := n.nkeys()
	if nk > intWidth {
		nk = intWidth // torn read during an update; version check retries
	}
	lo, hi := 0, nk
	for lo < hi {
		mid := (lo + hi) / 2
		if ik < n.rkey(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return n.child(lo)
}

// keyCmp orders (ikey, kind) pairs; kinds follow internal/masstree.
func keyCmp(aIkey uint64, aKind uint8, bIkey uint64, bKind uint8) int {
	switch {
	case aIkey < bIkey:
		return -1
	case aIkey > bIkey:
		return 1
	case aKind < bKind:
		return -1
	case aKind > bKind:
		return 1
	default:
		return 0
	}
}
