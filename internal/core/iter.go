package core

import (
	"bytes"
	"sync/atomic"
)

// Cursor is the bidirectional iterator surface every layer of the system
// shares: the core store implements it over the durable Masstree, the
// shard layer as a k-way merge of per-shard cursors, the transaction
// layer as an overlay of pending writes, and the façade re-exports it.
//
// A cursor is not a snapshot: it observes committed and in-flight writes
// much like the callback scans, but — unlike them — it never holds the
// epoch guard across more than one internal batch, so an arbitrarily long
// iteration never delays a checkpoint by more than one batch refill.
//
// Key and Value return slices that are only valid until the next
// positioning call (they alias the cursor's refill buffers); copy them to
// retain. Cursors are not safe for concurrent use.
//
// Opening a cursor per request is the intended use: Close hands the
// cursor's storage back to its worker, whose next NewIter reuses it, so a
// steady-state NewIter → Seek → Next… → Close allocates nothing. The
// price is the lifetime rule: a cursor must not be touched after Close —
// its storage is the worker's next cursor.
type Cursor interface {
	// First positions the cursor at the smallest in-bounds key.
	First() bool
	// Last positions the cursor at the largest in-bounds key.
	Last() bool
	// SeekGE positions the cursor at the smallest key ≥ k.
	SeekGE(k []byte) bool
	// SeekLT positions the cursor at the largest key < k.
	SeekLT(k []byte) bool
	// Next advances to the next larger key. On a fresh or before-first
	// cursor it is First.
	Next() bool
	// Prev advances to the next smaller key. On a fresh or after-last
	// cursor it is Last.
	Prev() bool
	// Valid reports whether the cursor is positioned at an entry.
	Valid() bool
	// Key returns the current key; valid until the next positioning call.
	Key() []byte
	// Value returns the current value; valid until the next positioning
	// call.
	Value() []byte
	// ValueUint64 is the uint64 view of the current value (DecodeValue).
	ValueUint64() uint64
	// Close releases the cursor; closing twice in a row is a no-op.
	// Positioning a closed cursor panics until the worker's next NewIter
	// reissues its storage, after which the old reference aliases that
	// new cursor: drop it at Close.
	Close()
}

// IterOptions bounds and orients a cursor.
type IterOptions struct {
	// LowerBound restricts the cursor to keys ≥ LowerBound; nil means the
	// start of the keyspace.
	LowerBound []byte
	// UpperBound restricts the cursor to keys < UpperBound (exclusive);
	// nil means the end of the keyspace.
	UpperBound []byte
	// Reverse orients the range-over-func adapters built from the cursor
	// (descending instead of ascending). The manual Seek/Next/Prev surface
	// is bidirectional regardless.
	Reverse bool
}

const (
	// iterKeepBytes caps the batch arena a closed cursor carries into its
	// next use; a larger one (a long walk over large values) is dropped at
	// Close so that one big scan does not pin its buffer to the worker.
	iterKeepBytes = 1 << 20
	// iterBatchMin is a fresh cursor's first-seek entry budget; refills
	// double the budget, so short scans stay cheap and long ones amortize
	// the guard and descent.
	iterBatchMin = 16
	// iterBatchFloor is the smallest adapted seek budget (see seekBatch).
	iterBatchFloor = 4
	// iterBatchMax caps the per-refill budget. One refill is the longest a
	// cursor ever holds the epoch guard, so this bounds how long any scan
	// can delay a checkpoint.
	iterBatchMax = 1024
)

// Cursor position states.
const (
	posFresh  = iota // never positioned: Next means First, Prev means Last
	posAt            // at ents[pos]
	posBefore        // before the first in-bounds key
	posAfter         // after the last in-bounds key
)

// iterEnt locates one batch entry inside the cursor's arena: the key at
// [koff, koff+klen), its value immediately after, at [koff+klen,
// koff+klen+vlen). Offsets instead of slices keep the batch a single
// reused allocation. Inline values skip the arena entirely: vw holds the
// self-contained value word (nonzero exactly for inline values, whose tag
// bit is set), decoded on demand without any guard.
type iterEnt struct {
	koff, klen, vlen int
	vw               uint64
}

// Iter is the core store's cursor: it walks the tree in bounded batches,
// entering the epoch guard only for the duration of each refill and
// re-seeking by the last delivered key between batches, so checkpoints
// are never blocked by a long iteration (the callback Scan, by contrast,
// pins the guard for its whole walk).
//
// Everything below the position fields is storage that survives Close and
// is reused by the worker's next cursor (see CursorSlot).
type Iter struct {
	h    Handle
	opts IterOptions // bounds alias lowerBuf/upperBuf

	pos      int
	fwd      bool // direction ents was filled in
	more     bool // entries may remain beyond ents in direction fwd
	batch    int
	consumed int  // entries delivered since the last explicit positioning
	stopped  bool // the last fill hit a bound (no entries remain beyond it)
	state    int
	closed   bool // stays set while the cursor waits in its worker's slot

	ents      []iterEnt // current batch, in iteration order
	arena     []byte    // key and value bytes backing ents
	resume    []byte    // refill key: successor (forward) or exclusive bound (reverse)
	seekBuf   []byte
	keyBuf    []byte      // scratch the tree walk builds keys in
	valBuf    []byte      // scratch inline values are materialized in
	revBuf    []scanEntry // scratch the reverse walk snapshots leaf chains in
	lowerBuf  []byte
	upperBuf  []byte
	collectFn func(k []byte, vw uint64) bool // bound once; see collect
}

// CursorSlot holds the cursor its worker closed last, for that worker's
// next NewIter to take: a private pool of one. It is an atomic pointer
// because handle 0 also serves Store.NewIter from any goroutine — two of
// them racing get one recycled cursor and one fresh — and it sits alone on
// its cache line so that workers opening cursors do not share one. The
// shard layer keeps its merge cursors in the same kind of slot.
type CursorSlot[T any] struct {
	p atomic.Pointer[T]
	_ [64 - 8]byte
}

// Take empties the slot and returns what it held (nil if nothing).
func (s *CursorSlot[T]) Take() *T { return s.p.Swap(nil) }

// Put offers a closed cursor to the slot; an occupied slot keeps its own
// and c is left to the collector.
func (s *CursorSlot[T]) Put(c *T) { s.p.CompareAndSwap(nil, c) }

// NewIter opens a cursor over the handle's store. Like the handle itself,
// a cursor is single-threaded; distinct cursors (on distinct handles) are
// independent. The cursor starts from fresh-cursor state whether or not
// its storage is recycled: position, bounds and the learned batch budget
// of a previous use never carry over.
func (h Handle) NewIter(o IterOptions) Cursor {
	it := h.s.iterSlots[h.w].Take()
	if it == nil {
		it = &Iter{h: h}
		it.collectFn = it.collect
	}
	it.closed = false
	it.state = posFresh
	it.batch, it.consumed = iterBatchMin, iterBatchMin
	it.opts = IterOptions{Reverse: o.Reverse}
	if len(o.LowerBound) > 0 {
		it.lowerBuf = append(it.lowerBuf[:0], o.LowerBound...)
		it.opts.LowerBound = it.lowerBuf
	}
	if len(o.UpperBound) > 0 {
		it.upperBuf = append(it.upperBuf[:0], o.UpperBound...)
		it.opts.UpperBound = it.upperBuf
	}
	return it
}

// NewIter opens a cursor on worker 0's handle.
func (s *Store) NewIter(o IterOptions) Cursor { return s.handles[0].NewIter(o) }

// collect is the tree walk's sink: it applies the terminating bound for
// the fill direction and copies the entry into the batch arena (inline
// values stay in their self-contained word instead). Bound once as
// collectFn so refills allocate nothing.
func (it *Iter) collect(k []byte, vw uint64) bool {
	if it.fwd {
		if it.opts.UpperBound != nil && bytes.Compare(k, it.opts.UpperBound) >= 0 {
			it.stopped = true
			return false
		}
	} else if it.opts.LowerBound != nil && bytes.Compare(k, it.opts.LowerBound) < 0 {
		it.stopped = true
		return false
	}
	koff := len(it.arena)
	it.arena = append(it.arena, k...)
	ent := iterEnt{koff: koff, klen: len(it.arena) - koff}
	if vwIsInline(vw) {
		ent.vw = vw // self-contained; no copy, no guard needed later
	} else {
		it.arena = it.h.appendValue(it.arena, vw)
		ent.vlen = len(it.arena) - ent.koff - ent.klen
	}
	it.ents = append(it.ents, ent)
	return true
}

// fill loads one batch starting at seek (inclusive forward, exclusive
// reverse; unbounded reverse starts at the end of the keyspace), holding
// the epoch guard only for the duration of the batch.
func (it *Iter) fill(fwd bool, seek []byte, unbounded bool) bool {
	if it.closed {
		panic("core: cursor used after Close")
	}
	h := it.h
	it.ents = it.ents[:0]
	it.arena = it.arena[:0]
	it.pos = 0
	it.fwd = fwd
	it.stopped = false
	h.s.mgr.Enter()
	h.s.stats.Scans.Add(h.w, 1)
	visited := 0
	if fwd {
		h.scanLayer(h.rootCell0(), &it.keyBuf, 0, seek, it.batch, &visited, it.collectFn)
	} else {
		b := revBound{}
		if !unbounded {
			b = boundFor(seek)
		}
		h.scanLayerRev(h.rootCell0(), &it.keyBuf, &it.revBuf, 0, &b, it.batch, &visited, it.collectFn)
	}
	h.s.mgr.Exit()
	stopped := it.stopped
	it.more = !stopped && len(it.ents) == it.batch
	if it.more {
		e := it.ents[len(it.ents)-1]
		last := it.arena[e.koff : e.koff+e.klen]
		if fwd {
			// Resume strictly after the last delivered key: its successor
			// in bytewise order is the key extended by one zero byte.
			it.resume = append(append(it.resume[:0], last...), 0)
		} else {
			it.resume = append(it.resume[:0], last...)
		}
	}
	if it.batch < iterBatchMax {
		it.batch *= 2
	}
	if len(it.ents) == 0 {
		it.state = posAfter
		if !fwd {
			it.state = posBefore
		}
		return false
	}
	it.state = posAt
	it.consumed++
	return true
}

// seekBatch picks the entry budget for an explicit positioning call,
// adapting to the cursor's recent consumption: a cursor re-seeked once
// per request — the YCSB-E shape — learns its typical scan length and
// fetches exactly that many entries per seek, instead of a fixed
// overestimate. Underestimates cost one extra (doubled) refill.
func (it *Iter) seekBatch() {
	b := it.consumed
	if b < iterBatchFloor {
		b = iterBatchFloor
	}
	if b > iterBatchMax {
		b = iterBatchMax
	}
	it.batch = b
	it.consumed = 0
}

// First positions the cursor at the smallest in-bounds key.
func (it *Iter) First() bool {
	it.seekBatch()
	return it.fill(true, it.opts.LowerBound, false)
}

// Last positions the cursor at the largest in-bounds key.
func (it *Iter) Last() bool {
	it.seekBatch()
	if it.opts.UpperBound != nil {
		return it.fill(false, it.opts.UpperBound, false)
	}
	return it.fill(false, nil, true)
}

// SeekGE positions the cursor at the smallest key ≥ k (clamped to the
// bounds).
func (it *Iter) SeekGE(k []byte) bool {
	if it.opts.LowerBound != nil && bytes.Compare(k, it.opts.LowerBound) < 0 {
		k = it.opts.LowerBound
	}
	it.seekBatch()
	it.seekBuf = append(it.seekBuf[:0], k...)
	return it.fill(true, it.seekBuf, false)
}

// SeekLT positions the cursor at the largest key < k (clamped to the
// bounds).
func (it *Iter) SeekLT(k []byte) bool {
	if it.opts.UpperBound != nil && bytes.Compare(k, it.opts.UpperBound) > 0 {
		k = it.opts.UpperBound
	}
	it.seekBatch()
	it.seekBuf = append(it.seekBuf[:0], k...)
	return it.fill(false, it.seekBuf, false)
}

// Next advances to the next larger key. The in-buffer advance is the
// inlinable fast path; everything else defers to nextSlow.
func (it *Iter) Next() bool {
	if it.state == posAt && it.fwd && it.pos+1 < len(it.ents) {
		it.pos++
		it.consumed++
		return true
	}
	return it.nextSlow()
}

func (it *Iter) nextSlow() bool {
	switch it.state {
	case posFresh, posBefore:
		return it.First()
	case posAfter:
		return false
	}
	if it.fwd {
		// Forward buffer exhausted (the fast path covered its interior).
		if !it.more {
			it.state = posAfter
			return false
		}
		return it.fill(true, it.resume, false)
	}
	// Direction switch: resume forward from the current key's successor.
	it.seekBatch()
	it.seekBuf = append(append(it.seekBuf[:0], it.Key()...), 0)
	return it.fill(true, it.seekBuf, false)
}

// Prev advances to the next smaller key; like Next, split so the
// in-buffer advance inlines.
func (it *Iter) Prev() bool {
	if it.state == posAt && !it.fwd && it.pos+1 < len(it.ents) {
		it.pos++
		it.consumed++
		return true
	}
	return it.prevSlow()
}

func (it *Iter) prevSlow() bool {
	switch it.state {
	case posFresh, posAfter:
		return it.Last()
	case posBefore:
		return false
	}
	if !it.fwd {
		if !it.more {
			it.state = posBefore
			return false
		}
		return it.fill(false, it.resume, false)
	}
	// Direction switch: the largest key strictly below the current one.
	it.seekBatch()
	it.seekBuf = append(it.seekBuf[:0], it.Key()...)
	return it.fill(false, it.seekBuf, false)
}

// Valid reports whether the cursor is positioned at an entry.
func (it *Iter) Valid() bool { return it.state == posAt }

// Key returns the current key; valid until the next positioning call.
func (it *Iter) Key() []byte {
	if it.state != posAt {
		return nil
	}
	e := it.ents[it.pos]
	return it.arena[e.koff : e.koff+e.klen : e.koff+e.klen]
}

// Value returns the current value; valid until the next positioning call.
func (it *Iter) Value() []byte {
	if it.state != posAt {
		return nil
	}
	e := it.ents[it.pos]
	if e.vw != 0 {
		it.valBuf = appendInlineValue(it.valBuf[:0], e.vw)
		return it.valBuf
	}
	return it.arena[e.koff+e.klen : e.koff+e.klen+e.vlen]
}

// ValueUint64 is the uint64 view of the current value.
func (it *Iter) ValueUint64() uint64 {
	if it.state != posAt {
		return 0
	}
	if e := it.ents[it.pos]; e.vw != 0 {
		return it.h.vwUint64(e.vw) // inline word: decoded without the arena
	}
	return DecodeValue(it.Value())
}

// Close hands the cursor, buffers and all, to its worker's slot for the
// next NewIter (an occupied slot keeps its cursor and this one is left to
// the collector). Closing again before that reissue is a no-op, and
// positioning panics; after it the reference is no longer the caller's.
func (it *Iter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.state = posAfter
	if cap(it.arena) > iterKeepBytes {
		it.arena = nil
	}
	it.h.s.iterSlots[it.h.w].Put(it)
}
