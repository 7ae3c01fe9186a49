package txn

import (
	"bytes"
	"slices"
	"sort"

	"incll/internal/core"
	"incll/internal/extlog"
)

// NewIter opens a bidirectional cursor over the transaction's view of the
// store: the committed state with the transaction's own pending writes
// overlaid — buffered puts are visible (including keys the store does not
// hold yet), buffered deletes hide store keys. The write set is
// snapshotted at call time; writes buffered after NewIter do not appear.
//
// Iterated entries are NOT added to the read set: Commit validates point
// reads only, so iteration carries no phantom protection. Use Get on the
// keys a commit must depend on.
//
// The cursor owns a copy of the snapshotted keys and values, so it stays
// valid after Commit or Abort, when the worker's next transaction reuses
// the Txn's byte storage.
func (t *Txn) NewIter(o core.IterOptions) core.Cursor {
	t.check()
	ops := make([]extlog.IntentOp, 0, len(t.writes))
	n := 0
	for _, op := range t.writes {
		if o.LowerBound != nil && bytes.Compare(op.Key, o.LowerBound) < 0 {
			continue
		}
		if o.UpperBound != nil && bytes.Compare(op.Key, o.UpperBound) >= 0 {
			continue
		}
		ops = append(ops, op)
		n += len(op.Key) + len(op.Val)
	}
	own := make([]byte, 0, n)
	for i := range ops {
		op := &ops[i]
		off := len(own)
		own = append(own, op.Key...)
		op.Key = own[off:len(own):len(own)]
		if !op.Delete {
			off = len(own)
			own = append(own, op.Val...)
			op.Val = own[off:len(own):len(own)]
		}
	}
	slices.SortFunc(ops, func(a, b extlog.IntentOp) int { return bytes.Compare(a.Key, b.Key) })
	return &overlayIter{base: t.m.topo.Load().iter(t.worker, o), ops: ops}
}

// Overlay cursor position states.
const (
	oFresh = iota
	oAt
	oBefore
	oAfter
)

// overlayIter merges the transaction's sorted pending-write buffer with a
// store cursor. On a key both sides hold, the pending write wins: a put
// replaces the stored value, a delete hides the key.
type overlayIter struct {
	base core.Cursor
	ops  []extlog.IntentOp // sorted ascending, bounds-filtered

	wi     int // head index into ops for the current direction
	state  int
	fwd    bool
	onOp   bool // current entry comes from ops[wi]
	onBoth bool // base sits on the same key (op wins; both advance)
	seek   []byte
}

// settleFwd resolves the smaller of the two heads into the current entry,
// consuming deletes (and the store keys they hide) along the way.
func (o *overlayIter) settleFwd() bool {
	o.fwd = true
	for {
		bv := o.base.Valid()
		ov := o.wi < len(o.ops)
		if !bv && !ov {
			o.state = oAfter
			return false
		}
		c := 1 // op side only
		switch {
		case !ov:
			c = -1 // base side only
		case bv:
			c = bytes.Compare(o.base.Key(), o.ops[o.wi].Key)
		}
		if c < 0 {
			o.onOp, o.onBoth = false, false
			o.state = oAt
			return true
		}
		if o.ops[o.wi].Delete {
			if c == 0 {
				o.base.Next()
			}
			o.wi++
			continue
		}
		o.onOp, o.onBoth = true, c == 0
		o.state = oAt
		return true
	}
}

// settleRev is settleFwd mirrored: the larger head wins, ops[wi] walks
// downward.
func (o *overlayIter) settleRev() bool {
	o.fwd = false
	for {
		bv := o.base.Valid()
		ov := o.wi >= 0
		if !bv && !ov {
			o.state = oBefore
			return false
		}
		c := 1 // op side only
		switch {
		case !ov:
			c = -1 // base side only
		case bv:
			c = bytes.Compare(o.ops[o.wi].Key, o.base.Key())
		}
		if c < 0 {
			o.onOp, o.onBoth = false, false
			o.state = oAt
			return true
		}
		if o.ops[o.wi].Delete {
			if c == 0 {
				o.base.Prev()
			}
			o.wi--
			continue
		}
		o.onOp, o.onBoth = true, c == 0
		o.state = oAt
		return true
	}
}

// First positions the cursor at the smallest key of the overlaid view.
func (o *overlayIter) First() bool {
	o.base.First()
	o.wi = 0
	return o.settleFwd()
}

// Last positions the cursor at the largest key of the overlaid view.
func (o *overlayIter) Last() bool {
	o.base.Last()
	o.wi = len(o.ops) - 1
	return o.settleRev()
}

// SeekGE positions the cursor at the smallest overlaid key ≥ k.
func (o *overlayIter) SeekGE(k []byte) bool {
	o.base.SeekGE(k)
	o.wi = sort.Search(len(o.ops), func(i int) bool { return bytes.Compare(o.ops[i].Key, k) >= 0 })
	return o.settleFwd()
}

// SeekLT positions the cursor at the largest overlaid key < k.
func (o *overlayIter) SeekLT(k []byte) bool {
	o.base.SeekLT(k)
	o.wi = sort.Search(len(o.ops), func(i int) bool { return bytes.Compare(o.ops[i].Key, k) >= 0 }) - 1
	return o.settleRev()
}

// Next advances to the next larger key.
func (o *overlayIter) Next() bool {
	switch o.state {
	case oFresh, oBefore:
		return o.First()
	case oAfter:
		return false
	}
	if !o.fwd {
		o.seek = append(append(o.seek[:0], o.Key()...), 0)
		return o.SeekGE(o.seek)
	}
	if o.onOp {
		if o.onBoth {
			o.base.Next()
		}
		o.wi++
	} else {
		o.base.Next()
	}
	return o.settleFwd()
}

// Prev advances to the next smaller key.
func (o *overlayIter) Prev() bool {
	switch o.state {
	case oFresh, oAfter:
		return o.Last()
	case oBefore:
		return false
	}
	if o.fwd {
		o.seek = append(o.seek[:0], o.Key()...)
		return o.SeekLT(o.seek)
	}
	if o.onOp {
		if o.onBoth {
			o.base.Prev()
		}
		o.wi--
	} else {
		o.base.Prev()
	}
	return o.settleRev()
}

// Valid reports whether the cursor is positioned at an entry.
func (o *overlayIter) Valid() bool { return o.state == oAt }

// Key returns the current key; valid until the next positioning call.
func (o *overlayIter) Key() []byte {
	if o.state != oAt {
		return nil
	}
	if o.onOp {
		return o.ops[o.wi].Key
	}
	return o.base.Key()
}

// Value returns the current value; valid until the next positioning call.
func (o *overlayIter) Value() []byte {
	if o.state != oAt {
		return nil
	}
	if o.onOp {
		return o.ops[o.wi].Val
	}
	return o.base.Value()
}

// ValueUint64 is the uint64 view of the current value, delegated so the
// base cursor's inline-word fast path applies to store entries.
func (o *overlayIter) ValueUint64() uint64 {
	if o.state != oAt {
		return 0
	}
	if o.onOp {
		return core.DecodeValue(o.ops[o.wi].Val)
	}
	return o.base.ValueUint64()
}

// Close releases the underlying store cursor.
func (o *overlayIter) Close() {
	o.base.Close()
	o.state = oAfter
}
