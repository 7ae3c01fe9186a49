// Package masstree is the transient Masstree baseline (the paper's MT) as
// the benchmark's masstree rung opens it: internal/core's tree over a
// transient arena (nvm.Config.Transient), which keeps no undo state and
// marks no line dirty, driven through core's guard-free entry points with
// no epoch boundaries. Nothing freed is reused, so readers need no guard.
// The figure harness runs the same store as its MT and MT+ modes.
package masstree

import (
	"incll/internal/core"
	"incll/internal/nvm"
)

// workers bounds the handles: Handle(i) takes i < workers.
const workers = 8

// Tree is one transient store.
type Tree struct{ s *core.Store }

// New returns an empty tree sized for a million 8-byte keys.
func New() *Tree { return newTree(1 << 24) }

func newTree(heapWords uint64) *Tree {
	a := nvm.New(nvm.Config{Words: heapWords + 1<<16, Transient: true})
	s, _ := core.Open(a, core.Config{
		Workers:     workers,
		LogSegWords: nvm.WordsPerLine, // a transient store appends no record
		TxnSegWords: nvm.WordsPerLine,
		HeapWords:   heapWords,
	})
	return &Tree{s}
}

// Handle is worker i's view of the tree; each concurrent worker uses its
// own.
type Handle struct{ h core.Handle }

// Handle returns worker i's handle (i < 8).
func (t *Tree) Handle(i int) Handle { return Handle{t.s.Handle(i)} }

// Get returns the value stored under k.
func (h Handle) Get(k []byte) (uint64, bool) { return h.h.GetLocked(k) }

// Put stores v under k; reports whether k was newly inserted.
func (h Handle) Put(k []byte, v uint64) bool { return h.h.PutLocked(k, v) }

// Delete removes k; reports whether it was present.
func (h Handle) Delete(k []byte) bool { return h.h.DeleteLocked(k) }

// Scan visits up to max keys ≥ start in order (max < 0: all) until fn
// returns false, and returns how many it visited.
func (h Handle) Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int {
	it := h.h.NewIter(core.IterOptions{})
	defer it.Close()
	n := 0
	for ok := it.SeekGE(start); ok && n != max; ok = it.Next() {
		n++
		if !fn(it.Key(), it.ValueUint64()) {
			break
		}
	}
	return n
}
