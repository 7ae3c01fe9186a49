package core

import "bytes"

// Merge is the one merge cursor: a k-way merge of source cursors into one
// ordered stream, in either direction. The shard layer merges one source
// per shard; a transaction merges its pending writes ahead of the store
// cursor. Two rules settle what sources disagree on:
//
//   - On equal keys the lowest-indexed source wins, and the sources tied
//     with it step past the key with it. Ties are recorded from the
//     comparison settling makes anyway, so disjoint sources (the per-shard
//     streams) pay nothing for the rule.
//   - Source 0 may be a Tombstoner: a key its current entry marks as a
//     tombstone is hidden, whatever the other sources hold under it.
//
// Source counts are small, so the merge is a linear min/max over the heads
// rather than a heap. Close closes every source; an owner that recycles
// its Merge wraps Close.
type Merge struct {
	srcs   []Cursor
	tomb   Tombstoner // srcs[0] when its tombstones hide keys, else nil
	cur    int        // source the current entry comes from
	ties   []int      // other sources positioned on the current key
	tieBuf [1]int     // ties' first storage: a two-source merge never allocates
	fwd    bool       // direction the heads are settled in
	state  int
	seek   []byte // scratch for direction switches
}

// Tombstoner is a merge source whose entries may be deletions.
type Tombstoner interface {
	// Tombstone reports whether the current entry hides its key.
	Tombstone() bool
}

// Reset points the merge, unpositioned, at srcs, which it keeps. tomb is
// nil or srcs[0].
func (m *Merge) Reset(srcs []Cursor, tomb Tombstoner) {
	m.srcs, m.tomb = srcs, tomb
	m.cur, m.state = -1, posFresh
	if m.ties == nil {
		m.ties = m.tieBuf[:0]
	}
}

// settle picks the smallest (largest, in reverse) valid head as the
// current entry, recording the sources tied with it, and steps past every
// key source 0 tombstones.
func (m *Merge) settle(fwd bool) bool {
	m.fwd = fwd
	for {
		m.cur, m.ties = -1, m.ties[:0]
		var key []byte
		for i, s := range m.srcs {
			if !s.Valid() {
				continue
			}
			k := s.Key()
			if m.cur < 0 {
				m.cur, key = i, k
				continue
			}
			c := bytes.Compare(k, key)
			if !fwd {
				c = -c
			}
			if c < 0 {
				m.cur, key, m.ties = i, k, m.ties[:0]
			} else if c == 0 {
				m.ties = append(m.ties, i)
			}
		}
		if m.cur < 0 {
			m.state = posAfter
			if !fwd {
				m.state = posBefore
			}
			return false
		}
		if m.cur != 0 || m.tomb == nil || !m.tomb.Tombstone() {
			m.state = posAt
			return true
		}
		m.step()
	}
}

// step moves the current source and its ties past the current key in the
// settled direction; every other head is already beyond it.
func (m *Merge) step() {
	if m.fwd {
		m.srcs[m.cur].Next()
		for _, i := range m.ties {
			m.srcs[i].Next()
		}
		return
	}
	m.srcs[m.cur].Prev()
	for _, i := range m.ties {
		m.srcs[i].Prev()
	}
}

// First positions the cursor at the smallest key of the merged view.
func (m *Merge) First() bool { return m.position(true, Cursor.First) }

// Last positions the cursor at the largest key of the merged view.
func (m *Merge) Last() bool { return m.position(false, Cursor.Last) }

// SeekGE positions the cursor at the smallest merged key ≥ k.
func (m *Merge) SeekGE(k []byte) bool {
	return m.position(true, func(s Cursor) bool { return s.SeekGE(k) })
}

// SeekLT positions the cursor at the largest merged key < k.
func (m *Merge) SeekLT(k []byte) bool {
	return m.position(false, func(s Cursor) bool { return s.SeekLT(k) })
}

// position applies one positioning call to every source and settles the
// heads in direction fwd.
func (m *Merge) position(fwd bool, pos func(Cursor) bool) bool {
	for _, s := range m.srcs {
		pos(s)
	}
	return m.settle(fwd)
}

// Next advances to the next larger key.
func (m *Merge) Next() bool {
	switch m.state {
	case posFresh, posBefore:
		return m.First()
	case posAfter:
		return false
	}
	if !m.fwd {
		// Direction switch: the other heads sit below the current key from
		// the descending pass, so every source re-seeks past it.
		m.seek = append(append(m.seek[:0], m.Key()...), 0)
		return m.SeekGE(m.seek)
	}
	m.step()
	return m.settle(true)
}

// Prev advances to the next smaller key.
func (m *Merge) Prev() bool {
	switch m.state {
	case posFresh, posAfter:
		return m.Last()
	case posBefore:
		return false
	}
	if m.fwd {
		m.seek = append(m.seek[:0], m.Key()...)
		return m.SeekLT(m.seek)
	}
	m.step()
	return m.settle(false)
}

// Valid reports whether the cursor is positioned at an entry.
func (m *Merge) Valid() bool { return m.state == posAt }

// Key returns the current key; valid until the next positioning call.
func (m *Merge) Key() []byte {
	if m.state != posAt {
		return nil
	}
	return m.srcs[m.cur].Key()
}

// Value returns the current value; valid until the next positioning call.
func (m *Merge) Value() []byte {
	if m.state != posAt {
		return nil
	}
	return m.srcs[m.cur].Value()
}

// ValueUint64 is the uint64 view of the current value, delegated so the
// winning source's inline-word fast path applies.
func (m *Merge) ValueUint64() uint64 {
	if m.state != posAt {
		return 0
	}
	return m.srcs[m.cur].ValueUint64()
}

// Close closes every source.
func (m *Merge) Close() {
	for _, s := range m.srcs {
		s.Close()
	}
	m.state, m.cur = posAfter, -1
}
