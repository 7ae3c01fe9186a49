package core

import (
	"encoding/binary"
	"testing"

	"incll/internal/nvm"
)

// BenchmarkGetUniform times a point read's descent on a tree too big for the
// caches: 1 M preloaded keys in scrambled order, uniform gets, one worker
// (run it at -cpu 1). The arena is sized like the benchmark's ycsb_a.
func BenchmarkGetUniform(b *testing.B) {
	const keys = 1_000_000
	scramble := func(i uint64) uint64 { return i * 0x9E3779B97F4A7C15 } // a bijection: key order ≠ insert order
	a := nvm.New(nvm.Config{Words: 1 << 24})
	s, _ := Open(a, Config{Workers: 1, LogSegWords: 1 << 20, HeapWords: 3 << 22})
	for i := uint64(0); i < keys; i++ {
		s.Put(EncodeUint64(scramble(i)), i)
		if i%10_000 == 0 {
			s.Advance() // bounds the external log: splits log their leaves
		}
	}
	s.Advance()
	h := s.Handle(0)
	var k [8]byte
	x := uint64(1)
	for b.Loop() {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		binary.BigEndian.PutUint64(k[:], scramble(x%keys))
		if _, ok := h.Get(k[:]); !ok {
			b.Fatal("a preloaded key is missing")
		}
	}
}

// byteValueStore preloads keys 256-byte values (the benchmark's
// churn_bytes shape) into a store with one worker and commits them.
func byteValueStore(keys uint64) (*Store, []byte) {
	a := nvm.New(nvm.Config{Words: 1 << 23})
	s, _ := Open(a, Config{Workers: 1, LogSegWords: 1 << 20, HeapWords: 3 << 21})
	v := make([]byte, 256)
	for i := range v {
		v[i] = byte(i * 7)
	}
	for i := uint64(0); i < keys; i++ {
		s.PutBytes(EncodeUint64(i), v)
		if i%10_000 == 0 {
			s.Advance()
		}
	}
	s.Advance()
	return s, v
}

// BenchmarkPutBytes256 times an overwrite with a 256-byte value: a fresh
// heap block written and published, the old one freed. Uniform over 50 k
// keys, one worker, an epoch boundary every 10 k ops (run it at -cpu 1).
func BenchmarkPutBytes256(b *testing.B) {
	const keys = 50_000
	s, v := byteValueStore(keys)
	h := s.Handle(0)
	var k [8]byte
	x, ops := uint64(1), 0
	for b.Loop() {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		binary.BigEndian.PutUint64(k[:], x%keys)
		v[0] = byte(x)
		h.PutBytes(k[:], v)
		if ops++; ops%10_000 == 0 {
			s.Advance() // recycles the superseded blocks and bounds the log
		}
	}
}

// BenchmarkGetBytes256 times a read of a 256-byte value into a reused
// buffer. Uniform over 50 k keys, one worker (run it at -cpu 1).
func BenchmarkGetBytes256(b *testing.B) {
	const keys = 50_000
	s, _ := byteValueStore(keys)
	h := s.Handle(0)
	var k [8]byte
	buf := make([]byte, 0, 256)
	x := uint64(1)
	for b.Loop() {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		binary.BigEndian.PutUint64(k[:], x%keys)
		var ok bool
		if buf, ok = h.AppendGet(buf[:0], k[:]); !ok || len(buf) != 256 {
			b.Fatal("a preloaded value is missing")
		}
	}
}
