package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll/internal/epoch"

	"incll/internal/nvm"
	"incll/internal/testutil"
)

// patternValue builds a deterministic payload so torn recoveries are
// detectable byte-by-byte.
var patternValue = testutil.Pattern

func TestBytesRoundTripAllSizes(t *testing.T) {
	_, s := newStore(t)
	sizes := []int{0, 1, 2, 5, 6, 7, 8, 9, 63, 64, 100, 1000, 1024, 4096, MaxValueBytes}
	for i, n := range sizes {
		k := EncodeUint64(uint64(i))
		v := patternValue(uint64(i), n)
		if !s.PutBytes(k, v) {
			t.Fatalf("size %d: not inserted", n)
		}
		got, ok := s.Handle(0).GetBytes(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("size %d: roundtrip mismatch (%d bytes, ok=%v)", n, len(got), ok)
		}
	}
	// Overwrites across representation boundaries: inline→block,
	// block→inline, block→different class.
	k := EncodeUint64(999)
	s.PutBytes(k, []byte("seed"))
	for _, n := range []int{3, 2000, 4, 100, 8168, 0, 700} {
		v := patternValue(uint64(n), n)
		if s.PutBytes(k, v) {
			t.Fatalf("size %d: overwrite reported insert", n)
		}
		if got, _ := s.Handle(0).GetBytes(k); !bytes.Equal(got, v) {
			t.Fatalf("size %d: overwrite mismatch", n)
		}
	}
	if !s.Delete(k) {
		t.Fatal("delete failed")
	}
	if _, ok := s.Handle(0).GetBytes(k); ok {
		t.Fatal("deleted key still present")
	}
	// A cursor walk returns every remaining value exactly.
	seen := 0
	it := s.Handle(0).NewIter(IterOptions{})
	for ok := it.First(); ok; ok = it.Next() {
		i := deVK(it.Key())
		if !bytes.Equal(it.Value(), patternValue(i, sizes[i])) {
			t.Fatalf("scan key %d: value mismatch", i)
		}
		seen++
	}
	it.Close()
	if seen != len(sizes) {
		t.Fatalf("scan saw %d keys, want %d", seen, len(sizes))
	}
}

func deVK(b []byte) uint64 {
	var k uint64
	for _, c := range b {
		k = k<<8 | uint64(c)
	}
	return k
}

func TestPutBytesOversizePanics(t *testing.T) {
	_, s := newStore(t)
	defer func() {
		if recover() == nil {
			t.Fatal("PutBytes beyond MaxValueBytes did not panic")
		}
	}()
	s.PutBytes(EncodeUint64(1), make([]byte, MaxValueBytes+1))
}

// TestLargeValueCrashAtEveryOp is the crash-at-every-point property for
// large-value Put / overwrite / Delete: a committed prefix, then exactly
// p doomed operations for every prefix length p, then a crash under three
// adversarial persistence policies. Recovery must expose the committed
// values byte-exactly — all-or-nothing, never torn.
func TestLargeValueCrashAtEveryOp(t *testing.T) {
	const keys = 6
	type op struct {
		k   uint64
		n   int // value size; -1 = delete
		del bool
	}
	var script []op
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		k := uint64(rng.Intn(keys))
		switch rng.Intn(5) {
		case 0:
			script = append(script, op{k: k, del: true})
		default:
			script = append(script, op{k: k, n: []int{3, 40, 900, 2000, 8168}[rng.Intn(5)]})
		}
	}

	for points := 0; points <= len(script); points++ {
		for policy := 0; policy < 3; policy++ {
			a := nvm.New(nvm.Config{Words: testArenaWords})
			s, _ := Open(a, testConfig())

			committed := map[uint64][]byte{}
			for i := uint64(0); i < keys; i++ {
				v := patternValue(i+1000, 1500)
				s.PutBytes(EncodeUint64(i), v)
				committed[i] = v
			}
			s.Advance()

			// Doomed suffix: the first `points` ops of the script.
			for i, o := range script[:points] {
				if o.del {
					s.Delete(EncodeUint64(o.k))
				} else {
					s.PutBytes(EncodeUint64(o.k), patternValue(uint64(i)*31+o.k, o.n))
				}
			}
			switch policy {
			case 0:
				a.Crash(nvm.PersistNone)
			case 1:
				a.Crash(nvm.RandomPolicy(0.5, int64(points)))
			case 2:
				a.Crash(nvm.EvenOddPolicy(points % 2))
			}
			s2 := reopen(t, a, testConfig())
			for k, v := range committed {
				got, ok := s2.Handle(0).GetBytes(EncodeUint64(k))
				if !ok {
					t.Fatalf("point %d policy %d: committed key %d missing", points, policy, k)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("point %d policy %d: key %d torn (%d bytes)", points, policy, k, len(got))
				}
			}
			if n := countKeys(s2); n != keys {
				t.Fatalf("point %d policy %d: scan saw %d keys", points, policy, n)
			}
		}
	}
}

// Property: random byte-valued op sequences with random crash points
// recover the committed model byte-exactly.
func TestPropertyByteValuesCrashEqualsCommittedModel(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		a := nvm.New(nvm.Config{Words: testArenaWords})
		s, _ := Open(a, testConfig())
		rng := rand.New(rand.NewSource(seed))
		committed := map[uint64]string{}
		working := map[uint64]string{}
		for i := 0; i < 900; i++ {
			k := uint64(rng.Intn(300))
			switch rng.Intn(6) {
			case 0:
				s.Delete(EncodeUint64(k))
				delete(working, k)
			default:
				v := patternValue(uint64(i)<<16|k, rng.Intn(2500))
				s.PutBytes(EncodeUint64(k), v)
				working[k] = string(v)
			}
			if i%37 == 0 {
				s.Advance()
				committed = map[uint64]string{}
				for k, v := range working {
					committed[k] = v
				}
			}
		}
		a.Crash(nvm.RandomPolicy(float64(seed%5)/4, seed))
		s2 := reopen(t, a, testConfig())
		for k, v := range committed {
			got, ok := s2.Handle(0).GetBytes(EncodeUint64(k))
			if !ok || string(got) != v {
				t.Fatalf("seed %d: key %d mismatch after recovery (ok=%v, %d vs %d bytes)",
					seed, k, ok, len(got), len(v))
			}
		}
		if n := countKeys(s2); n != len(committed) {
			t.Fatalf("seed %d: scan saw %d keys, committed %d", seed, n, len(committed))
		}
	}
}

// TestValueHeapNoLeakAcrossCrashRounds runs 100 crash/recover rounds of
// large-value overwrites. Freed blocks must recycle through the limbo
// lists, so the heap's wilderness high-water mark plateaus. Crash-timing
// randomness lets the steady-state pool wobble by a refill or two, but a
// genuine leak (superseded or orphaned blocks never reclaimed) grows by
// ~keys blocks per round and blows through the slack within a few rounds.
func TestValueHeapNoLeakAcrossCrashRounds(t *testing.T) {
	const (
		keys   = 40
		rounds = 100
		warmup = 30
		slack  = 8192 // words: two wilderness refills of headroom
	)
	a := nvm.New(nvm.Config{Words: testArenaWords})
	cfg := testConfig()
	s, _ := Open(a, cfg)

	var used uint64
	for round := 0; round < rounds; round++ {
		for i := uint64(0); i < keys; i++ {
			// Same size class every round, fresh contents: each overwrite
			// allocates a new block and frees the old one.
			s.PutBytes(EncodeUint64(i), patternValue(uint64(round)<<16|i, 1200))
		}
		s.Advance() // commit: superseded blocks splice into the free lists
		// Doomed overwrites, then a crash: the rolled-back epoch's fresh
		// blocks must be reclaimed by the allocator rollback.
		for i := uint64(0); i < keys; i++ {
			s.PutBytes(EncodeUint64(i), patternValue(uint64(round)<<17|i, 1200))
		}
		a.Crash(nvm.RandomPolicy(0.5, int64(round)))
		s = reopen(t, a, cfg)
		if round == warmup {
			used = s.HeapUsed()
		}
		if round > warmup {
			if got := s.HeapUsed(); got > used+slack {
				t.Fatalf("round %d: heap high-water mark grew %d → %d words (leak)",
					round, used, got)
			}
		}
	}
	// The committed values are still intact after the churn.
	for i := uint64(0); i < keys; i++ {
		v, ok := s.Handle(0).GetBytes(EncodeUint64(i))
		if !ok || len(v) != 1200 {
			t.Fatalf("key %d lost after %d rounds (%d bytes, %v)", i, rounds, len(v), ok)
		}
	}
}

// TestValueHeapConcurrentReaders races readers against a writer that keeps
// overwriting eight keys with 256-byte values across 1 ms epochs, so every
// overwrite writes a fresh block with plain stores (nvm.Arena.StoreBytes)
// and superseded blocks come back from the limbo lists to be written again.
// Every read must return a whole value its writer wrote: the first eight
// bytes name the key and round, the rest follow from them. Run it under
// -race: a block read before its value word published it, or reused while
// a guarded reader could still reach it, shows as a race or a torn value.
//
// Boundaries are paced by work as well as by the ticker: every
// roundsPerEpoch rounds the writer waits for the next boundary. A round
// frees eight 32-word blocks, and a block freed in one epoch is reused only
// after the next boundary, so the rounds between two boundaries carve at
// most about 2 × roundsPerEpoch × 256 words: 512 rounds keep that under a
// quarter of the 2^20-word heap however far the ticker falls behind.
func TestValueHeapConcurrentReaders(t *testing.T) {
	const keys, minEpochs, minRounds, roundsPerEpoch = 8, 20, 200, 512
	a := nvm.New(nvm.Config{Words: testArenaWords})
	cfg := testConfig()
	cfg.Workers = 3
	s, _ := Open(a, cfg)
	value := func(k, round uint64) []byte {
		return append(binary.BigEndian.AppendUint64(nil, round<<8|k), patternValue(round<<8|k, 248)...)
	}
	for k := uint64(0); k < keys; k++ {
		s.PutBytes(EncodeUint64(k), value(k, 0))
	}
	epoch0 := s.Epochs().Current()
	var tk epoch.Ticker
	tk.Start(time.Millisecond, func() { s.Advance() })
	defer tk.Stop()

	var done atomic.Bool
	var readers sync.WaitGroup
	errs := make(chan error, 2)
	for r := 1; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			h := s.Handle(r)
			var buf []byte
			for !done.Load() {
				for k := uint64(0); k < keys; k++ {
					var ok bool
					buf, ok = h.AppendGet(buf[:0], EncodeUint64(k))
					if !ok || len(buf) != 256 {
						errs <- fmt.Errorf("reader %d: key %d read %d bytes, %v", r, k, len(buf), ok)
						return
					}
					v := binary.BigEndian.Uint64(buf)
					if v&0xFF != k || !bytes.Equal(buf, value(k, v>>8)) {
						errs <- fmt.Errorf("reader %d: key %d read a torn value (round %d)", r, k, v>>8)
						return
					}
				}
			}
		}(r)
	}
	h := s.Handle(0)
	deadline := time.Now().Add(10 * time.Second)
	round := uint64(0)
	for round < minRounds || s.Epochs().Current()-epoch0 < minEpochs {
		if time.Now().After(deadline) {
			break
		}
		if round%roundsPerEpoch == roundsPerEpoch-1 {
			for e := s.Epochs().Current(); s.Epochs().Current() == e && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
		round++
		for k := uint64(0); k < keys; k++ {
			h.PutBytes(EncodeUint64(k), value(k, round))
		}
	}
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ep := s.Epochs().Current() - epoch0; round < minRounds || ep < minEpochs {
		t.Fatalf("%d rounds in %d epochs before the deadline, want %d in %d", round, ep, minRounds, minEpochs)
	}
	for k := uint64(0); k < keys; k++ {
		if v, ok := s.Handle(0).GetBytes(EncodeUint64(k)); !ok || !bytes.Equal(v, value(k, round)) {
			t.Fatalf("key %d does not hold its last round's value", k)
		}
	}
}

// Open refuses an arena with an offset that a heap value word cannot hold.
// The bound is 2^31 words (16 GiB), so it is checked on the size alone: no
// test builds an arena of that size.
func TestValueBlockArenaBound(t *testing.T) {
	const bound = 1 << 31
	checkArenaSize(bound) // the last offset, 2^31 - 2, fits
	if off, _ := vwBlock(heapVW(bound-2, MaxValueBytes)); off != bound-2 {
		t.Fatalf("the last even offset of a 2^31-word arena decodes to %d", off)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 2^31 + 8-word arena was accepted")
		}
	}()
	checkArenaSize(bound + nvm.WordsPerLine)
}

// A full heap does not stop deletes. Keys with heap values fill half a
// small heap and raw blocks the rest, until the allocator refuses even the
// smallest class; then every key is deleted — half in one epoch, the rest
// a few per epoch across boundaries — and, once the boundaries have made
// the space allocatable, every key is inserted again.
func TestDeleteOnAFullHeap(t *testing.T) {
	a := nvm.New(nvm.Config{Words: 1 << 20})
	s, _ := Open(a, Config{Workers: 2, LogSegWords: 1 << 12, HeapWords: 1 << 16})
	h := s.Handle(0)
	val := bytes.Repeat([]byte{7}, 100)
	var keys [][]byte
	for i := 0; s.HeapUsed() < 1<<15; i++ {
		keys = append(keys, fmt.Appendf(nil, "key%05d", i))
		h.PutBytes(keys[i], val)
	}
	for s.alloc.Handle(1).Alloc(1) != 0 {
	}
	for i, k := range keys {
		if !h.Delete(k) {
			t.Fatalf("key %q was not there to delete", k)
		}
		if i >= len(keys)/2 && i%16 == 0 {
			s.Advance()
		}
	}
	s.Advance()
	s.Advance()
	for _, k := range keys {
		h.PutBytes(k, val)
	}
	for _, k := range keys {
		if v, ok := h.GetBytes(k); !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %q lost its value after the full heap", k)
		}
	}
}
