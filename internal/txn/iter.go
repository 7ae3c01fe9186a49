package txn

import (
	"bytes"
	"slices"

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
	n := 0
	for _, op := range t.writes {
		n += len(op.Key) + len(op.Val)
	}
	ops := make([]extlog.IntentOp, 0, len(t.writes))
	own := make([]byte, 0, n) // never grows: the copies below alias it
	for _, op := range t.writes {
		if (o.LowerBound != nil && bytes.Compare(op.Key, o.LowerBound) < 0) ||
			(o.UpperBound != nil && bytes.Compare(op.Key, o.UpperBound) >= 0) {
			continue
		}
		off, mid := len(own), len(own)+len(op.Key)
		own = append(append(own, op.Key...), op.Val...)
		op.Key, op.Val = own[off:mid:mid], own[mid:len(own):len(own)]
		ops = append(ops, op)
	}
	slices.SortFunc(ops, func(a, b extlog.IntentOp) int { return bytes.Compare(a.Key, b.Key) })
	v := &overlay{pending: pendingCursor{ops: ops, i: -1}}
	v.srcs = [2]core.Cursor{&v.pending, t.m.topo.Load().iter(t.worker, o)}
	v.Reset(v.srcs[:], &v.pending)
	return v
}

// overlay is a transaction's cursor: the write-set snapshot merged ahead
// of the store cursor, so on a key both hold the pending write wins — a put
// replaces the stored value, a delete (a tombstone) hides the key. The
// merge, its sources and the snapshot's cursor are one allocation.
type overlay struct {
	core.Merge
	pending pendingCursor
	srcs    [2]core.Cursor
}

// pendingCursor is the write-set snapshot as a merge source: a sorted slice
// whose deletes are tombstones. The merge positions it before stepping it.
type pendingCursor struct {
	ops []extlog.IntentOp // sorted ascending, bounds-filtered
	i   int               // current op; outside [0, len(ops)) when none
}

func (p *pendingCursor) First() bool          { p.i = 0; return p.Valid() }
func (p *pendingCursor) Last() bool           { p.i = len(p.ops) - 1; return p.Valid() }
func (p *pendingCursor) SeekGE(k []byte) bool { p.i = p.search(k); return p.Valid() }
func (p *pendingCursor) SeekLT(k []byte) bool { p.i = p.search(k) - 1; return p.Valid() }
func (p *pendingCursor) Next() bool           { p.i = min(p.i+1, len(p.ops)); return p.Valid() }
func (p *pendingCursor) Prev() bool           { p.i = max(p.i-1, -1); return p.Valid() }
func (p *pendingCursor) Valid() bool          { return p.i >= 0 && p.i < len(p.ops) }
func (p *pendingCursor) Tombstone() bool      { return p.ops[p.i].Delete }
func (p *pendingCursor) ValueUint64() uint64  { return core.DecodeValue(p.Value()) }
func (p *pendingCursor) Close()               {}

func (p *pendingCursor) Key() []byte {
	if !p.Valid() {
		return nil
	}
	return p.ops[p.i].Key
}

func (p *pendingCursor) Value() []byte {
	if !p.Valid() {
		return nil
	}
	return p.ops[p.i].Val
}

// search returns the index of the first op whose key is ≥ k.
func (p *pendingCursor) search(k []byte) int {
	i, _ := slices.BinarySearchFunc(p.ops, k, func(op extlog.IntentOp, k []byte) int { return bytes.Compare(op.Key, k) })
	return i
}
