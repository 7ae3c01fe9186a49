package core

import (
	"bytes"
	"testing"
)

// TestPositionSurvivesValueUpdates pins what a Pos promises, for keys of
// one, two and three layers: a value update leaves the position good and a
// read at it returns the new value; a committed write at it lands where a
// descent finds it; an insert into the leaf makes it stale, and the read
// that finds it stale leaves a fresh one. An absent key has a position too.
func TestPositionSurvivesValueUpdates(t *testing.T) {
	keys := [][]byte{EncodeUint64(1), []byte("ninebytes"), []byte("seventeen-bytes!!")}
	for _, k := range keys {
		_, s := newStore(t)
		s.PutBytes(k, []byte("v0"))
		s.Advance()
		h := s.Handle(0)
		locked := func(f func()) {
			s.Epochs().Enter()
			defer s.Epochs().Exit()
			f()
		}
		getAt := func(pos *Pos) (v []byte, found, stale bool) {
			locked(func() { v, found, stale = h.AppendGetLocked(nil, k, pos) })
			return v, found, stale
		}
		// sibling differs from k in its last byte only: same last layer.
		sibling := bytes.Clone(k)
		sibling[len(sibling)-1]++

		var pos Pos
		if v, ok := h.AppendGetPos(nil, k, &pos); !ok || string(v) != "v0" || pos.leaf == 0 || pos.idx < 0 {
			t.Fatalf("%q: read %q,%v at %+v", k, v, ok, pos)
		}
		var absent Pos
		if _, ok := h.AppendGetPos(nil, sibling, &absent); ok || absent.leaf != pos.leaf || absent.idx != -1 {
			t.Fatalf("%q: absent sibling at %+v, want leaf %d index -1", k, absent, pos.leaf)
		}

		s.Handle(1).PutBytes(k, []byte("v1")) // claims the line's ValInCLL, in place
		if v, found, stale := getAt(&pos); stale || !found || string(v) != "v1" {
			t.Fatalf("%q after an update: %q,%v stale=%v", k, v, found, stale)
		}
		var stale bool
		locked(func() { stale = h.PutCommittedLocked(k, []byte("v2"), &pos) })
		if got, _ := s.Handle(1).GetBytes(k); stale || string(got) != "v2" {
			t.Fatalf("%q: committed write at the position: stale=%v, descent reads %q", k, stale, got)
		}

		s.Handle(1).PutBytes(sibling, []byte("s"))
		if v, found, stale := getAt(&pos); !stale || !found || string(v) != "v2" {
			t.Fatalf("%q after a sibling insert: %q,%v stale=%v, want stale", k, v, found, stale)
		}
		if _, _, stale := getAt(&pos); stale {
			t.Fatalf("%q: the refreshed position is stale", k)
		}
		var found bool
		locked(func() { _, found, stale = h.AppendGetLocked(nil, sibling, &absent) })
		if !stale || !found {
			t.Fatalf("%q: absent position after the insert: found=%v stale=%v", k, found, stale)
		}
	}
}
