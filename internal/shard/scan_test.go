package shard

// Edge cases of the k-way merge cursor: shards with no keys in range,
// walks that stop mid-merge, and interleaved variable-length keys whose
// shared prefixes make per-shard streams collide tightly in key order.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/epoch"
)

// TestScanWithEmptyShards routes every key to one shard and checks the
// merge across the three empty cursors.
func TestScanWithEmptyShards(t *testing.T) {
	const shards = 4
	s, _ := Open(testConfig(shards, 1))
	var want []uint64
	for i, n := uint64(0), 0; n < 50; i++ {
		if Route(core.EncodeUint64(i), shards) == 2 {
			s.Handle(0).Put(core.EncodeUint64(i), i)
			want = append(want, i)
			n++
		}
	}
	for i := 0; i < shards; i++ {
		if i != 2 && s.ShardStore(i).Len() != 0 {
			t.Fatalf("shard %d unexpectedly owns keys", i)
		}
	}
	var got []uint64
	it := s.Handle(0).NewIter(core.IterOptions{})
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, it.ValueUint64())
	}
	if len(got) != len(want) {
		t.Fatalf("scan visited %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d = %d, want %d", i, got[i], want[i])
		}
	}
	// A start key past everything sees nothing.
	if it.SeekGE(core.EncodeUint64(1 << 40)) {
		t.Fatalf("seek past the end landed on %x", it.Key())
	}
}

// TestScanEarlyTermination stops a merged walk mid-merge and checks that
// it stopped on the right key, that a closed cursor's successor (the
// recycled one) re-seeks cleanly from an interior start key, and that
// neither walk skips or repeats a key.
func TestScanEarlyTermination(t *testing.T) {
	s, _ := Open(testConfig(4, 1))
	const n = 1000
	for i := uint64(0); i < n; i++ {
		s.Handle(0).Put(core.EncodeUint64(i), i)
	}
	steps := 0
	it := s.Handle(0).NewIter(core.IterOptions{})
	for ok := it.First(); ok; ok = it.Next() {
		if v := it.ValueUint64(); v != uint64(steps) {
			t.Fatalf("step %d delivered %d", steps, v)
		}
		if steps++; steps == 137 { // stop on the 137th key
			break
		}
	}
	if steps != 137 || decodeKey(it.Key()) != 136 {
		t.Fatalf("stopped after %d steps on key %d; want 137 steps, key 136", steps, decodeKey(it.Key()))
	}
	it.Close()

	steps = 0
	it = s.Handle(0).NewIter(core.IterOptions{})
	for ok := it.SeekGE(core.EncodeUint64(500)); ok && steps < 41; ok = it.Next() {
		if v := it.ValueUint64(); v != 500+uint64(steps) {
			t.Fatalf("step %d from the start key delivered %d", steps, v)
		}
		steps++
	}
	it.Close()
	if steps != 41 {
		t.Fatalf("walk from 500 took %d steps, want 41", steps)
	}
}

// TestScanInterleavedVariableLengthKeys spreads tightly colliding keys —
// shared prefixes, different lengths, multi-layer (>8 byte) forms — across
// shards and checks the merge restores exact bytewise order.
func TestScanInterleavedVariableLengthKeys(t *testing.T) {
	const shards = 4
	s, _ := Open(testConfig(shards, 1))
	var keys [][]byte
	for i := 0; i < 40; i++ {
		base := fmt.Sprintf("user%04d", i)
		keys = append(keys,
			[]byte(base),                 // exactly 8 bytes: one layer
			[]byte(base+"/inbox"),        // layer key sharing the prefix
			[]byte(base+"/inbox/unread"), // third layer
			[]byte(base[:4]),             // short prefix key
			[]byte(base+"\x00"),          // successor-by-zero-byte
		)
	}
	shardsHit := map[int]bool{}
	for i, k := range keys {
		s.Handle(0).Put(k, uint64(i))
		shardsHit[Route(k, shards)] = true
	}
	if len(shardsHit) < 2 {
		t.Fatal("keys did not spread across shards; test is vacuous")
	}

	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	// Deduplicate (construction yields unique keys, but keep the reference honest).
	uniq := sorted[:0]
	for _, k := range sorted {
		if len(uniq) == 0 || !bytes.Equal(uniq[len(uniq)-1], k) {
			uniq = append(uniq, k)
		}
	}

	var got [][]byte
	it := s.Handle(0).NewIter(core.IterOptions{})
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, append([]byte(nil), it.Key()...))
	}
	if len(got) != len(uniq) {
		t.Fatalf("scan visited %d keys, want %d", len(got), len(uniq))
	}
	for i := range uniq {
		if !bytes.Equal(got[i], uniq[i]) {
			t.Fatalf("position %d = %q, want %q", i, got[i], uniq[i])
		}
	}

	// Resuming from an interior multi-layer key lands exactly there.
	start := []byte("user0020/inbox")
	if !it.SeekGE(start) || !bytes.Equal(it.Key(), start) {
		t.Fatalf("seek to %q landed on %q", start, it.Key())
	}
}

// TestScanConcurrentWithWritersAndTicks races merged scans against
// writers and the coordinated checkpoint ticker (run under -race in CI):
// the per-shard cursors refill while epochs advance and leaves split.
// Every scan must stay strictly ordered and every observed value must
// carry its key's signature.
func TestScanConcurrentWithWritersAndTicks(t *testing.T) {
	s, _ := Open(testConfig(4, 3))
	const keyspace = 1500
	for i := uint64(0); i < keyspace; i++ {
		s.Handle(0).Put(core.EncodeUint64(i), i&0xFFFF)
	}
	var tk epoch.Ticker
	tk.Start(time.Millisecond, func() { s.Advance() })
	defer s.Shutdown()
	defer tk.Stop()

	iters := 30
	if testing.Short() {
		iters = 8
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle(w)
			rng := rand.New(rand.NewSource(int64(w)*131 + 7))
			lo := uint64(w) * (keyspace / 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := lo + uint64(rng.Intn(keyspace/2))
				if rng.Intn(12) == 0 {
					h.Delete(core.EncodeUint64(k))
				} else {
					h.Put(core.EncodeUint64(k), uint64(i)<<16|k&0xFFFF)
				}
			}
		}(w)
	}

	scanner := s.Handle(2)
	for i := 0; i < iters; i++ {
		var prev []byte
		it := scanner.NewIter(core.IterOptions{})
		for ok := it.First(); ok; ok = it.Next() {
			k, v := it.Key(), it.ValueUint64()
			if prev != nil && bytes.Compare(k, prev) <= 0 {
				t.Errorf("merged scan order violated at key %x", k)
				break
			}
			prev = append(prev[:0], k...)
			ik := decodeKey(k)
			if v&0xFFFF != ik&0xFFFF {
				t.Errorf("key %d scanned with foreign value %#x", ik, v)
				break
			}
		}
		// Bounded walks starting mid-keyspace exercise refills that
		// straddle boundary ticks.
		steps := 100
		for ok := it.SeekGE(core.EncodeUint64(uint64(i * 37 % keyspace))); ok && steps > 0; ok = it.Next() {
			steps--
		}
		it.Close()
	}
	close(stop)
	wg.Wait()
}
