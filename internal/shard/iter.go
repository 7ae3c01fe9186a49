package shard

import "incll/internal/core"

// Iter is the sharded cursor: a core.Merge of one core cursor per shard.
// The router places every key on exactly one shard, so the per-shard
// streams are disjoint and the merge yields exactly the key order an
// unsharded cursor would, in either direction.
//
// Like the core cursors under it, a closed Iter waits in its worker's slot
// (a core.CursorSlot on the Store) and is the storage of that worker's next
// NewIter: it must not be touched after Close.
type Iter struct {
	core.Merge
	h      Handle
	its    []core.Cursor // per-shard cursors, the merge's sources
	closed bool
}

// NewIter opens a cursor over the whole cluster on worker i's per-shard
// handles. Not safe for concurrent use, like the handle itself. A
// one-shard store has nothing to merge and returns the shard's own cursor.
func (h Handle) NewIter(o core.IterOptions) core.Cursor {
	if len(h.s.shards) == 1 {
		return h.s.shards[0].Handle(h.i).NewIter(o)
	}
	m := h.s.iterSlots[h.i].Take()
	if m == nil {
		m = &Iter{h: h, its: make([]core.Cursor, 0, len(h.s.shards))}
	}
	m.its = m.its[:0]
	for _, sh := range h.s.shards {
		m.its = append(m.its, sh.Handle(h.i).NewIter(o))
	}
	m.Reset(m.its, nil)
	m.closed = false
	return m
}

// Close releases every per-shard cursor to its store and this one to its
// worker's slot. Closing again before the next NewIter is a no-op.
func (m *Iter) Close() {
	if m.closed {
		return
	}
	m.Merge.Close()
	m.closed = true
	m.h.s.iterSlots[m.h.i].Put(m)
}
