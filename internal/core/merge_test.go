package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"incll/internal/nvm"
)

// tombCursor marks the entries of its cursor whose value is "tomb" as
// tombstones.
type tombCursor struct{ Cursor }

func (c tombCursor) Tombstone() bool { return string(c.Value()) == "tomb" }

// TestMergeCursorTiesAndTombstones merges three overlapping stores, the first
// with tombstones, against a model: a key shows the value of the lowest
// store holding it, unless that store's entry is a tombstone. A random walk
// of seeks and steps in both directions, under random bounds, must track
// the model position exactly.
func TestMergeCursorTiesAndTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	stores := make([]*Store, 3)
	for i := range stores {
		stores[i], _ = Open(nvm.New(nvm.Config{Words: 1 << 20}), Config{LogSegWords: 1 << 12, TxnSegWords: 1 << 8, HeapWords: 1 << 19})
	}
	view := map[string]string{}
	for k := uint64(0); k < 400; k++ {
		shown := false
		for i, s := range stores {
			if rng.Intn(3) != 0 {
				continue
			}
			v := []byte{byte(i), byte(k)}
			if i == 0 && rng.Intn(3) == 0 {
				v = []byte("tomb")
			}
			s.PutBytes(EncodeUint64(k), v)
			if !shown && string(v) != "tomb" {
				view[string(EncodeUint64(k))] = string(v)
			}
			shown = true
		}
	}
	for round := 0; round < 40; round++ {
		var o IterOptions
		if round%2 == 1 {
			o.LowerBound = EncodeUint64(uint64(rng.Intn(200)))
			o.UpperBound = EncodeUint64(uint64(200 + rng.Intn(250)))
		}
		var keys []string
		for k := range view {
			if (o.LowerBound == nil || k >= string(o.LowerBound)) && (o.UpperBound == nil || k < string(o.UpperBound)) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		first := tombCursor{stores[0].Handle(0).NewIter(o)}
		var m Merge
		m.Reset([]Cursor{first, stores[1].Handle(0).NewIter(o), stores[2].Handle(0).NewIter(o)}, first)
		p := -1 // model position: -1 before the first key, len(keys) after the last
		fresh := true
		for step := 0; step < 200; step++ {
			var ok bool
			k := EncodeUint64(uint64(rng.Intn(460)))
			search := sort.SearchStrings(keys, string(k))
			switch op := rng.Intn(10); {
			case op < 4:
				ok = m.Next()
				if fresh {
					p = 0
				} else if p < len(keys) {
					p++
				}
			case op < 8:
				ok = m.Prev()
				if fresh {
					p = len(keys) - 1
				} else if p >= 0 {
					p--
				}
			case op == 8:
				ok, p = m.SeekGE(k), search
			default:
				ok, p = m.SeekLT(k), search-1
			}
			fresh = false
			if want := p >= 0 && p < len(keys); ok != want || m.Valid() != want {
				t.Fatalf("round %d step %d: positioned %v, model %v (p=%d of %d)", round, step, ok, want, p, len(keys))
			}
			if ok && (string(m.Key()) != keys[p] || string(m.Value()) != view[keys[p]]) {
				t.Fatalf("round %d step %d: at (%x, %x), model (%x, %x)", round, step, m.Key(), m.Value(), keys[p], view[keys[p]])
			}
			if !ok && (m.Key() != nil || m.Value() != nil) {
				t.Fatalf("round %d step %d: unpositioned merge returns an entry", round, step)
			}
		}
		m.Close()
	}
}

// TestArenaWordsFitsOpen: an arena of exactly ArenaWords(cfg) words holds
// every region Open reserves, and one line less does not.
func TestArenaWordsFitsOpen(t *testing.T) {
	cfg := Config{Workers: 3, LogSegWords: 1000, TxnSegWords: 100, HeapWords: 1<<16 + 5}
	n := ArenaWords(cfg)
	s, _ := Open(nvm.New(nvm.Config{Words: n}), cfg)
	s.PutBytes([]byte("k"), bytes.Repeat([]byte{1}, 100))
	if v, ok := s.Handle(0).GetBytes([]byte("k")); !ok || len(v) != 100 {
		t.Fatalf("store on an exact arena lost its write")
	}
	mustPanic(t, "Open on one line less than ArenaWords", func() {
		Open(nvm.New(nvm.Config{Words: n - nvm.WordsPerLine}), cfg)
	})
}
