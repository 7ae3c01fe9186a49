package nvm

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// storeWords is the reference StoreBytes must match: the per-word Store
// loop the value heap used before it, packing b little-endian eight bytes
// per word with a zero-padded last word.
func storeWords(a *Arena, off uint64, b []byte) {
	for i := 0; i < len(b); i += 8 {
		var word uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			word |= uint64(b[i+j]) << (8 * uint(j))
		}
		a.Store(off+uint64(i/8), word)
	}
}

// dirtySet lists every line that is not yet persistent, in order.
func dirtySet(a *Arena) []int {
	var lines []int
	for line := range a.dirty(0, len(a.summary)) {
		lines = append(lines, line)
	}
	return lines
}

// storeBytesCase prepares an arena for one case: a non-zero pattern
// persisted over the region the bytes will cover (so a dropped line, and
// the zero padding of the last word, both show), one already-dirty line
// inside it, then write applied at off.
func storeBytesCase(cfg Config, off uint64, b []byte, write func(*Arena, uint64, []byte)) *Arena {
	a := New(cfg)
	words := uint64(len(b)+7) / 8
	for w := off - off%WordsPerLine; w < off+words+WordsPerLine; w++ {
		a.Store(w, w*0x9E3779B97F4A7C15|1)
	}
	a.FlushAll()
	a.Store(off+words/2, 7) // the first mark of this line happened earlier
	write(a, off, b)
	return a
}

var storeBytesLens = []int{0, 1, 7, 8, 9, 63, 64, 65, 256, 8168}

// TestStoreBytesMatchesPerWordStores: for every length of the table and
// every start word within a line, StoreBytes leaves the same volatile
// image, the same dirty lines and — after a crash under each policy — the
// same persistent image as the per-word Store loop, on a plain, an
// eviction and a transient arena; and AppendBytes reads the bytes back.
func TestStoreBytesMatchesPerWordStores(t *testing.T) {
	arenas := map[string]Config{
		"plain":     {Words: 4096},
		"eviction":  {Words: 4096, DirtyCapacity: 4, Seed: 11},
		"transient": {Words: 4096, Transient: true},
	}
	for name, cfg := range arenas {
		for _, n := range storeBytesLens {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(i*131 + n)
			}
			for pos := uint64(0); pos < WordsPerLine; pos++ {
				off := 3*WordsPerLine + pos
				at := fmt.Sprintf("%s/len %d/word %d", name, n, pos)
				got := storeBytesCase(cfg, off, b, (*Arena).StoreBytes)
				want := storeBytesCase(cfg, off, b, storeWords)
				if !slices.Equal(got.volatile, want.volatile) {
					t.Fatalf("%s: volatile images differ", at)
				}
				if g, w := dirtySet(got), dirtySet(want); !slices.Equal(g, w) || got.DirtyLines() != want.DirtyLines() {
					t.Fatalf("%s: dirty lines %v (%d), per-word stores %v (%d)", at, g, got.DirtyLines(), w, want.DirtyLines())
				}
				prefix := []byte("prefix")
				if rt := got.AppendBytes(prefix, off, n); !bytes.Equal(rt[:len(prefix)], prefix) || !bytes.Equal(rt[len(prefix):], b) {
					t.Fatalf("%s: AppendBytes does not round-trip", at)
				}
				if cfg.Transient {
					if d := got.DirtyLines(); d != 0 {
						t.Fatalf("%s: %d dirty lines on a transient arena", at, d)
					}
					continue
				}
				dirty := dirtySet(want)
				policies := map[string]func() Policy{
					"subset":  func() Policy { return SubsetPolicy(dirty, 0x5A5A5A5A5A5A5A5A, false) },
					"evenodd": func() Policy { return EvenOddPolicy(1) },
					"all":     func() Policy { return PersistAll },
					"none":    func() Policy { return PersistNone },
				}
				for pname, policy := range policies {
					got := storeBytesCase(cfg, off, b, (*Arena).StoreBytes)
					want := storeBytesCase(cfg, off, b, storeWords)
					got.Crash(policy())
					want.Crash(policy())
					if !slices.Equal(got.volatile, want.volatile) || !slices.Equal(got.persist, want.persist) {
						t.Fatalf("%s/%s: images differ after Crash", at, pname)
					}
				}
			}
		}
	}
}

// TestStoreBytesPublication is the contract StoreBytes rests on: one writer
// fills fresh blocks with plain stores and publishes each block's offset
// with an atomic Store; readers that Load the offset and AppendBytes the
// block see every byte of it. Run it under -race.
func TestStoreBytesPublication(t *testing.T) {
	const blocks, pub = 2000, WordsPerLine
	for _, cfg := range []Config{{Words: 1 << 17}, {Words: 1 << 17, Transient: true}} {
		a := New(cfg)
		content := func(off uint64) []byte { // length and bytes follow from off
			b := make([]byte, 6+off%300)
			for i := range b {
				b[i] = byte(off*31 + uint64(i))
			}
			return b
		}
		var done atomic.Bool
		var readers sync.WaitGroup
		errs := make(chan error, 2)
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var buf []byte
				for !done.Load() {
					off := a.Load(pub)
					if off == 0 {
						continue
					}
					buf = a.AppendBytes(buf[:0], off+1, int(a.Load(off)))
					if !bytes.Equal(buf, content(off)) {
						errs <- fmt.Errorf("transient=%v: block at %d read %d bytes that differ from what was written", cfg.Transient, off, len(buf))
						return
					}
				}
			}()
		}
		next := uint64(2 * WordsPerLine)
		for i := 0; i < blocks; i++ {
			b := content(next)
			a.Store(next, uint64(len(b)))
			a.StoreBytes(next+1, b)
			a.Store(pub, next)
			next += 1 + uint64(len(b)+7)/8
		}
		done.Store(true)
		readers.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
