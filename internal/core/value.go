package core

import (
	"errors"
	"fmt"
)

// Variable-length byte values on a crash-consistent value heap.
//
// Every leaf value slot holds one tagged *value word* (see DESIGN.md §7):
//
//   - bit 0 = 1: an inline value. Bits 1..3 carry the byte length (0..5)
//     and bits 4..43 carry the bytes themselves, so the whole value lives
//     in the leaf and Get never leaves the node's cache lines.
//   - bit 0 = 0: the arena offset of a heap value block — a size-classed
//     allocation whose first payload word is the byte length, followed by
//     the bytes packed eight per word.
//
// Both forms fit the ValInCLL's 44-bit capture field (inline words by
// construction, pointers because arena offsets are far below 2^44 words),
// so an overwrite is always an out-of-place write plus a single-word value
// swap that the existing InCLL/extlog undo machinery covers — no new fence
// points. Crash-atomicity of the heap block itself follows from epoch-based
// reclamation: a block freed by an overwrite stays intact on the limbo list
// until the epoch commits, so lazy recovery can restore the old value word
// and still find the old bytes behind it, while the rolled-back allocator
// state reclaims the orphaned new block.
//
// The uint64 API is a view over the same byte store: Put(k, v) stores v's
// minimal big-endian encoding (≤5 bytes whenever v < 2^40, the inline fast
// path) and Get decodes it back; values that came in through PutBytes
// decode as the big-endian value of their first eight bytes.

// MaxInlineBytes is the largest value stored inline in the leaf's value
// word: tag bit + 3 length bits + 5 bytes is exactly the ValInCLL's 44-bit
// capture budget.
const MaxInlineBytes = 5

// MaxValueBytes is the largest value PutBytes accepts: the payload of the
// largest allocator size class minus the block's length word.
const MaxValueBytes = 8168

// MaxKeyBytes is the largest key the validated API paths accept. The tree
// itself has no hard limit (a key occupies one trie layer per eight
// bytes), but the bound keeps layer recursion shallow and stays far below
// the intent log's per-key ceiling, so a validated write can never fail
// later inside a commit.
const MaxKeyBytes = 1024

// Size-limit errors. The façade re-exports these; the transaction layer
// wraps them, so errors.Is works across every path.
var (
	// ErrValueTooLarge reports a value longer than MaxValueBytes.
	ErrValueTooLarge = errors.New("incll: value exceeds MaxValueBytes")
	// ErrKeyTooLarge reports a key longer than MaxKeyBytes.
	ErrKeyTooLarge = errors.New("incll: key exceeds MaxKeyBytes")
)

// ValidateKV checks a key/value pair against MaxKeyBytes/MaxValueBytes,
// returning ErrKeyTooLarge or ErrValueTooLarge (wrapped with the observed
// sizes) when a bound is exceeded. The error-returning API paths (façade
// byte methods, transaction writes) call this before touching the store.
func ValidateKV(k, v []byte) error {
	if len(k) > MaxKeyBytes {
		return fmt.Errorf("%w (%d > %d bytes)", ErrKeyTooLarge, len(k), MaxKeyBytes)
	}
	if len(v) > MaxValueBytes {
		return fmt.Errorf("%w (%d > %d bytes)", ErrValueTooLarge, len(v), MaxValueBytes)
	}
	return nil
}

const (
	vwInlineTag  = 1 // bit 0 of an inline value word
	vwInlineData = 4 // bit offset of the first inline byte
)

// vwIsInline reports whether a value word is an inline value (as opposed
// to a heap-block or layer-anchor pointer).
func vwIsInline(w uint64) bool { return w&vwInlineTag != 0 }

func vwInlineLen(w uint64) int { return int(w >> 1 & 7) }

// inlineVW packs b (len ≤ MaxInlineBytes) into an inline value word.
func inlineVW(b []byte) uint64 {
	w := uint64(len(b))<<1 | vwInlineTag
	for i, c := range b {
		w |= uint64(c) << (vwInlineData + 8*uint(i))
	}
	return w
}

// blockWords returns the payload words a heap block for n value bytes
// occupies: one length word plus the packed bytes.
func blockWords(n uint64) uint64 { return 1 + (n+7)/8 }

// newValueWord renders v as a value word: inline when it fits, otherwise
// an out-of-place heap block (written before the word is published).
func (h Handle) newValueWord(v []byte) uint64 {
	if len(v) <= MaxInlineBytes {
		return inlineVW(v)
	}
	if len(v) > MaxValueBytes {
		panic("core: value exceeds MaxValueBytes")
	}
	off := h.ah.Alloc(blockWords(uint64(len(v))))
	if off == 0 {
		panic("core: durable heap exhausted (increase Config.HeapWords)")
	}
	h.s.stats.ValueHeapBytes.Add(h.w, int64(len(v)))
	a := h.s.arena
	a.Store(off, uint64(len(v)))
	a.StoreBytes(off+1, v) // private until the caller publishes off
	return off
}

// freeValueWord returns a superseded value word's heap block to the limbo
// list (a no-op for inline values). The block's bytes stay intact until the
// epoch commits, which is what lets lazy recovery restore the old word.
func (h Handle) freeValueWord(vw uint64) {
	if vwIsInline(vw) {
		return
	}
	n := h.s.arena.Load(vw)
	h.ah.Free(vw, blockWords(n))
}

// appendInlineValue appends an inline value word's bytes to dst. Unlike
// heap words, an inline word is self-contained: decoding it needs no
// arena access and therefore no epoch guard.
func appendInlineValue(dst []byte, vw uint64) []byte {
	n := vwInlineLen(vw)
	for i := 0; i < n; i++ {
		dst = append(dst, byte(vw>>(vwInlineData+8*uint(i))))
	}
	return dst
}

// appendValue appends the bytes behind a value word to dst. Safe while the
// caller holds the epoch guard: published blocks are immutable and freed
// blocks survive until the next epoch boundary.
func (h Handle) appendValue(dst []byte, vw uint64) []byte {
	if vwIsInline(vw) {
		return appendInlineValue(dst, vw)
	}
	a := h.s.arena
	return a.AppendBytes(dst, vw+1, int(a.Load(vw)))
}

// vwUint64 decodes a value word as the uint64 API sees it: the big-endian
// value of the first eight bytes.
func (h Handle) vwUint64(vw uint64) uint64 {
	if vwIsInline(vw) {
		n := vwInlineLen(vw)
		var v uint64
		for i := 0; i < n; i++ {
			v = v<<8 | vw>>(vwInlineData+8*uint(i))&0xFF
		}
		return v
	}
	a := h.s.arena
	n := int(a.Load(vw))
	if n > 8 {
		n = 8
	}
	word := a.Load(vw + 1)
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | word>>(8*uint(i))&0xFF
	}
	return v
}

// EncodeValue renders v as the canonical byte value the uint64 API stores:
// the minimal big-endian encoding (empty for 0, ≤5 bytes — the inline fast
// path — whenever v < 2^40).
func EncodeValue(v uint64) []byte { return AppendValueUint64(nil, v) }

// AppendValueUint64 appends EncodeValue(v) to dst.
func AppendValueUint64(dst []byte, v uint64) []byte {
	n := 0
	for x := v; x != 0; x >>= 8 {
		n++
	}
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// DecodeValue is the uint64 view of a byte value: the big-endian decode of
// its first eight bytes (exact inverse of EncodeValue).
func DecodeValue(b []byte) uint64 {
	if len(b) > 8 {
		b = b[:8]
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}
