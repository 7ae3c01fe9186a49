package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"incll/internal/nvm"
)

// openTransient opens a store over a transient arena of testArenaWords.
func openTransient(t *testing.T) (*nvm.Arena, *Store) {
	t.Helper()
	a := nvm.New(nvm.Config{Words: testArenaWords, Transient: true})
	s, _ := Open(a, testConfig())
	return a, s
}

// streamKey returns key i of worker w. A third of the keys are 8-byte
// integers, numerous enough to split leaves and interiors; the rest share
// 16- and 24-byte prefixes, so they live three and four layers deep.
func streamKey(w, i int) []byte {
	switch i % 3 {
	case 0:
		return EncodeUint64(uint64(i)<<1 | uint64(w))
	case 1:
		return []byte(fmt.Sprintf("layered-prefix/%d/%05d", w, i))
	default:
		return []byte(fmt.Sprintf("layered-prefix/deeper--%d/%05d", w, i))
	}
}

// runStream applies worker w's seeded op stream for one round to h:
// inserts, updates (inline and heap values), deletes and gets over keys
// only worker w writes.
func runStream(h Handle, w, round, keys int) {
	rng := rand.New(rand.NewSource(int64(round)*7919 + int64(w)))
	for op := 0; op < 4000; op++ {
		k := streamKey(w, rng.Intn(keys))
		switch r := rng.Intn(10); {
		case r < 6:
			v := make([]byte, rng.Intn(24))
			rng.Read(v)
			h.PutBytes(k, v)
		case r < 8:
			h.Delete(k)
		default:
			h.Get(k)
		}
	}
}

// walk lists a store's entries through a cursor, ascending or descending.
func walk(s *Store, fwd bool) (keys, vals [][]byte) {
	it := s.Handle(0).NewIter(IterOptions{})
	defer it.Close()
	step, ok := it.Next, it.First()
	if !fwd {
		step, ok = it.Prev, it.Last()
	}
	for ; ok; ok = step() {
		keys = append(keys, append([]byte(nil), it.Key()...))
		vals = append(vals, append([]byte(nil), it.Value()...))
	}
	return keys, vals
}

// TestTransientMatchesDurable feeds one seeded two-worker op stream to a
// durable store and to a transient one, with an epoch boundary after each
// round. Both must end with the same contents, walked both ways; the
// transient store must have captured and logged nothing and dirtied no
// line.
func TestTransientMatchesDurable(t *testing.T) {
	const rounds, keys = 6, 3000
	_, durable := newStore(t)
	ta, transient := openTransient(t)
	for round := 0; round < rounds; round++ {
		for _, s := range []*Store{durable, transient} {
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					runStream(s.Handle(w), w, round, keys)
				}(w)
			}
			wg.Wait()
			s.Advance()
		}
	}

	for _, fwd := range []bool{true, false} {
		dk, dv := walk(durable, fwd)
		tk, tv := walk(transient, fwd)
		if len(dk) != len(tk) {
			t.Fatalf("fwd=%v: durable walk lists %d keys, transient %d", fwd, len(dk), len(tk))
		}
		for i := range dk {
			if !bytes.Equal(dk[i], tk[i]) || !bytes.Equal(dv[i], tv[i]) {
				t.Fatalf("fwd=%v entry %d: durable %q=%x, transient %q=%x", fwd, i, dk[i], dv[i], tk[i], tv[i])
			}
			if i > 0 && (bytes.Compare(dk[i-1], dk[i]) >= 0) == fwd {
				t.Fatalf("fwd=%v: walk out of order at %d: %q then %q", fwd, i, dk[i-1], dk[i])
			}
		}
	}

	ds, ts := durable.Stats(), transient.Stats()
	if ds.LoggedNodes.Load() == 0 || ds.InCLLPerm.Load() == 0 || ds.InCLLVal.Load() == 0 {
		t.Fatalf("the stream missed a durable path: logged %d, InCLLp %d, ValInCLL %d",
			ds.LoggedNodes.Load(), ds.InCLLPerm.Load(), ds.InCLLVal.Load())
	}
	if n, p, v := ts.LoggedNodes.Load(), ts.InCLLPerm.Load(), ts.InCLLVal.Load(); n|p|v != 0 {
		t.Fatalf("transient store logged %d nodes, captured %d InCLLp and %d ValInCLL", n, p, v)
	}
	if n := ta.DirtyLines(); n != 0 {
		t.Fatalf("transient arena has %d dirty lines", n)
	}
	if n := transient.Log().Entries(); n != 0 {
		t.Fatalf("transient store appended %d external-log entries", n)
	}
}
