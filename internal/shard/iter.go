package shard

import (
	"bytes"

	"incll/internal/core"
)

// Iter is the sharded cursor: a k-way merge of one core cursor per shard.
// The router places every key on exactly one shard, so the per-shard
// streams are disjoint and popping the smallest (largest, descending)
// head yields exactly the key order an unsharded cursor would — in either
// direction. Shard counts are small, so the merge is a linear min/max
// over the heads rather than a heap.
//
// Like the core cursors under it, a closed Iter waits in its worker's slot
// (a core.CursorSlot on the Store) and is the storage of that worker's next
// NewIter: it must not be touched after Close.
type Iter struct {
	h      Handle
	its    []core.Cursor // per-shard cursors, closed with this one
	cur    int           // shard the current entry comes from
	fwd    bool          // direction the heads are settled in
	state  int
	closed bool
	seek   []byte // scratch for direction switches
}

// Merge cursor position states (mirrors the core cursor's).
const (
	sFresh = iota
	sAt
	sBefore
	sAfter
)

// NewIter opens a cursor over the whole cluster on worker i's per-shard
// handles. Not safe for concurrent use, like the handle itself.
func (h Handle) NewIter(o core.IterOptions) core.Cursor {
	m := h.s.iterSlots[h.i].Take()
	if m == nil {
		m = &Iter{h: h, its: make([]core.Cursor, 0, len(h.s.shards))}
	}
	m.its = m.its[:0]
	for _, sh := range h.s.shards {
		m.its = append(m.its, sh.Handle(h.i).NewIter(o))
	}
	m.cur, m.state, m.closed = -1, sFresh, false
	return m
}

// NewIter opens a cluster cursor on worker 0's handles.
func (s *Store) NewIter(o core.IterOptions) core.Cursor { return s.Handle(0).NewIter(o) }

// settleMin picks the smallest valid head as the current entry.
func (m *Iter) settleMin() bool {
	m.fwd = true
	m.cur = -1
	for i, it := range m.its {
		if !it.Valid() {
			continue
		}
		if m.cur < 0 || bytes.Compare(it.Key(), m.its[m.cur].Key()) < 0 {
			m.cur = i
		}
	}
	if m.cur < 0 {
		m.state = sAfter
		return false
	}
	m.state = sAt
	return true
}

// settleMax picks the largest valid head as the current entry.
func (m *Iter) settleMax() bool {
	m.fwd = false
	m.cur = -1
	for i, it := range m.its {
		if !it.Valid() {
			continue
		}
		if m.cur < 0 || bytes.Compare(it.Key(), m.its[m.cur].Key()) > 0 {
			m.cur = i
		}
	}
	if m.cur < 0 {
		m.state = sBefore
		return false
	}
	m.state = sAt
	return true
}

// First positions the cursor at the smallest in-bounds key cluster-wide.
func (m *Iter) First() bool {
	for _, it := range m.its {
		it.First()
	}
	return m.settleMin()
}

// Last positions the cursor at the largest in-bounds key cluster-wide.
func (m *Iter) Last() bool {
	for _, it := range m.its {
		it.Last()
	}
	return m.settleMax()
}

// SeekGE positions the cursor at the smallest key ≥ k cluster-wide.
func (m *Iter) SeekGE(k []byte) bool {
	for _, it := range m.its {
		it.SeekGE(k)
	}
	return m.settleMin()
}

// SeekLT positions the cursor at the largest key < k cluster-wide.
func (m *Iter) SeekLT(k []byte) bool {
	for _, it := range m.its {
		it.SeekLT(k)
	}
	return m.settleMax()
}

// Next advances to the next larger key.
func (m *Iter) Next() bool {
	switch m.state {
	case sFresh, sBefore:
		return m.First()
	case sAfter:
		return false
	}
	if !m.fwd {
		// Direction switch: re-seek every shard past the current key (the
		// other heads sit below it from the descending pass).
		m.seek = append(append(m.seek[:0], m.its[m.cur].Key()...), 0)
		return m.SeekGE(m.seek)
	}
	// The other shards already sit at their smallest key above the current
	// position; advancing the consumed head restores the merge invariant.
	m.its[m.cur].Next()
	return m.settleMin()
}

// Prev advances to the next smaller key.
func (m *Iter) Prev() bool {
	switch m.state {
	case sFresh, sAfter:
		return m.Last()
	case sBefore:
		return false
	}
	if m.fwd {
		m.seek = append(m.seek[:0], m.its[m.cur].Key()...)
		return m.SeekLT(m.seek)
	}
	m.its[m.cur].Prev()
	return m.settleMax()
}

// Valid reports whether the cursor is positioned at an entry.
func (m *Iter) Valid() bool { return m.state == sAt }

// Key returns the current key; valid until the next positioning call.
func (m *Iter) Key() []byte {
	if m.state != sAt {
		return nil
	}
	return m.its[m.cur].Key()
}

// Value returns the current value; valid until the next positioning call.
func (m *Iter) Value() []byte {
	if m.state != sAt {
		return nil
	}
	return m.its[m.cur].Value()
}

// ValueUint64 is the uint64 view of the current value, delegated so the
// underlying cursor's inline-word fast path applies.
func (m *Iter) ValueUint64() uint64 {
	if m.state != sAt {
		return 0
	}
	return m.its[m.cur].ValueUint64()
}

// Close releases every per-shard cursor to its store and this one to its
// worker's slot. Closing again before the next NewIter is a no-op.
func (m *Iter) Close() {
	if m.closed {
		return
	}
	for _, it := range m.its {
		it.Close()
	}
	m.state, m.cur, m.closed = sAfter, -1, true
	m.h.s.iterSlots[m.h.i].Put(m)
}
