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
//   - bit 0 = 0: a heap value block. Bits 0..30 carry its arena offset
//     (even, so bit 0 is clear) and bits 31..43 its byte length; the
//     size-classed block holds the bytes packed eight per word.
//
// Both forms fit the ValInCLL's 44-bit capture field (inline words by
// construction, heap words because Open bounds the arena at 2^31 words),
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

// MaxValueBytes is the largest value PutBytes accepts. It fits the largest
// allocator size class and the heap value word's 13-bit length field.
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
	vwInlineTag  = 1  // bit 0 of an inline value word
	vwInlineData = 4  // bit offset of the first inline byte
	vwLenShift   = 31 // first bit of a heap word's length; its offset is below
)

// checkArenaSize panics, for Open, on an arena with an offset of 2^31 or more.
func checkArenaSize(words uint64) {
	if words > 1<<vwLenShift {
		panic("core: arena exceeds the 2^31-word value-word address space")
	}
}

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

// blockWords returns the payload words of a heap block of n bytes.
func blockWords(n int) uint64 { return uint64(n+7) / 8 }

// heapVW packs a heap block's offset and byte length into a value word;
// vwBlock unpacks them.
func heapVW(off uint64, n int) uint64      { return off | uint64(n)<<vwLenShift }
func vwBlock(w uint64) (off uint64, n int) { return w & (1<<vwLenShift - 1), int(w >> vwLenShift) }

// newValueWord renders v as a value word: inline when it fits, otherwise
// an out-of-place heap block (written before the word is published).
func (h Handle) newValueWord(v []byte) uint64 {
	if len(v) <= MaxInlineBytes {
		return inlineVW(v)
	}
	if len(v) > MaxValueBytes {
		panic("core: value exceeds MaxValueBytes")
	}
	off := h.ah.Alloc(blockWords(len(v)))
	if off == 0 {
		panic("core: durable heap exhausted (increase Config.HeapWords)")
	}
	h.s.stats.ValueHeapBytes.Add(h.w, int64(len(v)))
	h.s.arena.StoreBytes(off, v) // private until the caller publishes the word
	return heapVW(off, len(v))
}

// freeValueWord returns a superseded value word's heap block to the limbo
// list (a no-op for inline values). The block's bytes stay intact until the
// epoch commits, which is what lets lazy recovery restore the old word.
func (h Handle) freeValueWord(vw uint64) {
	if vwIsInline(vw) {
		return
	}
	off, n := vwBlock(vw)
	h.ah.Free(off, blockWords(n))
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
	off, n := vwBlock(vw)
	return h.s.arena.AppendBytes(dst, off, n)
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
	off, n := vwBlock(vw)
	word := h.s.arena.Load(off)
	var v uint64
	for i := 0; i < min(n, 8); i++ {
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
