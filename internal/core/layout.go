// Package core implements the paper's primary contribution: a durable
// Masstree made crash-consistent with Fine-Grained Checkpointing and
// In-Cache-Line Logging (InCLL), plus the external object log for the
// operations InCLL cannot absorb.
//
// Every node lives in the simulated NVM arena with an explicit cache-line
// layout mirroring the paper's Figure 1. A durable leaf holds 14 entries
// (one fewer than transient Masstree) to make room for the in-line logs:
//
//	line 0: (spare) | parent | meta | next | nodeEpoch | permutationInCLL | permutation | hikey
//	line 1: ikeys[0..7]
//	line 2: ikeys[8..13] | kinds | (spare)
//	line 3: InCLL1 | vals[0..6]        InCLL1 shares its line with vals 0-6
//	line 4: vals[7..13] | InCLL2       InCLL2 shares its line with vals 7-13
//
// nodeEpoch, permutationInCLL and permutation share line 0, so the InCLLp
// write protocol (undo copy → epoch tag → mutation) is ordered by PCSO
// without any flush. The two ValInCLLs share their lines with the value
// words they protect, for the same reason. Each carries the low 16 bits of
// the epoch it was written in, and that tag alone validates it: a value
// update writes its slot's line and nothing else — no nodeEpoch stamp, no
// store to invalidate the other ValInCLL (incll.go) — so it dirties one of
// the five lines, and a delete dirties line 0 only. An update to a second
// slot of a value line whose ValInCLL is taken this epoch relocates the
// entry to a free slot (perm.swapFree): line 0, the new slot's ikey line and
// its value line, like an insert, and no fence. The paper's version word
// (lock bit and change counters) is not durable state and is not here: it
// lives in a DRAM table on the Store (node.go), so taking a leaf's lock
// dirties nothing.
package core

import "incll/internal/nvm"

// NodeWords is the arena footprint of every node (leaf or interior).
const NodeWords = 40

// LeafWidth is the number of key/value entries per durable leaf: one fewer
// than the transient tree's 15, the space being spent on the InCLLs.
const LeafWidth = 14

// Common header offsets (same for both node types). Word 0 is spare.
const (
	fParent = 1 // arena offset of the parent interior; 0 at a layer root
	fMeta   = 2 // bit 0: isLeaf; written once when the node is born
)

// Leaf offsets.
const (
	fNext      = 3 // right sibling (B-link)
	fEpoch     = 4 // nodeEpoch<<2 | insAllowed<<1 | logged (InCLLp state)
	fPermInCLL = 5 // undo copy of the permutation at epoch start
	fPerm      = 6 // the permutation word
	fHikey     = 7 // first ikey of the right sibling; ^0 when rightmost
	fIkeys     = 8 // 14 ikey words: 8..21
	fKinds     = 22
	fSpareLeaf = 23
	fInCLL1    = 24 // ValInCLL for vals 0..6
	fVals1     = 25 // vals[0..6]: 25..31
	fVals2     = 32 // vals[7..13]: 32..38
	fInCLL2    = 39 // ValInCLL for vals 7..13
)

// Interior offsets.
const (
	fLogEpoch = 3 // epoch this interior was last external-logged in
	fNkeys    = 5
	fRkeys    = 8  // 15 router keys: 8..22
	fChildren = 24 // 16 children: 24..39
	intWidth  = 15
)

const metaLeaf = 1 << 0

// valOff returns the word offset of vals[i] within a leaf, honouring the
// two-line split around the InCLLs.
func valOff(i int) uint64 {
	if i < 7 {
		return fVals1 + uint64(i)
	}
	return fVals2 + uint64(i-7)
}

// valLine reports which ValInCLL (0 or 1) protects vals[i].
func valLine(i int) int {
	if i < 7 {
		return 0
	}
	return 1
}

// inCLLOff returns the offset of the ValInCLL for line l (0 or 1).
func inCLLOff(l int) uint64 {
	if l == 0 {
		return fInCLL1
	}
	return fInCLL2
}

// ---- nodeEpoch word (InCLLp state) ----

const (
	epLogged     = 1 << 0
	epInsAllowed = 1 << 1
)

func packEpochWord(epoch uint64, insAllowed, logged bool) uint64 {
	w := epoch << 2
	if insAllowed {
		w |= epInsAllowed
	}
	if logged {
		w |= epLogged
	}
	return w
}

func epochOf(w uint64) uint64     { return w >> 2 }
func loggedBit(w uint64) bool     { return w&epLogged != 0 }
func insAllowedBit(w uint64) bool { return w&epInsAllowed != 0 }

// ---- ValInCLL packing (paper §4.1.3) ----
//
// bits 0..3:  protected index (0xF = invalid)
// bits 4..47: the protected value word's low 44 bits, verbatim
// bits 48..63: low 16 bits of the epoch the InCLL was written in
//
// The captured field holds the tagged value word of value.go — an inline
// value (≤44 bits by construction) or a heap/anchor pointer (arena offsets
// are far below 2^44 words, asserted in Open) — so the capture round-trips
// every legal value word exactly.

const (
	invalidIdx   = 0xF
	valInCLLMask = 1<<44 - 1
)

func packValInCLL(vw uint64, idx int, epoch uint64) uint64 {
	return uint64(idx)&0xF | (vw&valInCLLMask)<<4 | (epoch&0xFFFF)<<48
}

func valInCLLWord(w uint64) uint64 { return w >> 4 & valInCLLMask }
func valInCLLIdx(w uint64) int     { return int(w & 0xF) }
func valInCLLEp16(w uint64) uint64 { return w >> 48 }

// invalidValInCLL returns an invalid (unused) ValInCLL tagged with epoch.
// Only fresh leaves, lazy recovery and a nodeEpoch's move into a new
// 2^16-epoch window store one; in steady state a ValInCLL is unused because
// its tag is not the current epoch's.
func invalidValInCLL(epoch uint64) uint64 { return packValInCLL(0, invalidIdx, epoch) }

// ---- kinds word: 14 4-bit kind fields ----

func kindAt(w uint64, i int) uint8 { return uint8(w >> (4 * uint(i)) & 0xF) }

func withKind(w uint64, i int, k uint8) uint64 {
	sh := 4 * uint(i)
	return w&^(uint64(0xF)<<sh) | uint64(k)<<sh
}

// ---- version word (transient; in the Store's DRAM table, node.go) ----

const (
	vLocked    = 1 << 0
	vInserting = 1 << 1
	vSplitting = 1 << 2
	vInsertLo  = 1 << 8
	vSplitLo   = 1 << 24
)

// ---- permutation word, width 14 ----
//
// Same scheme as transient Masstree: 4 bits of count, then slot indices.
// Nibble capacity is 15; the durable leaf uses slots 0..13, so nibble 14
// permanently holds slot 14 and the count never exceeds 14.

type perm uint64

const permIdentity perm = 0xEDCBA98765432100

func (p perm) count() int     { return int(p & 0xF) }
func (p perm) slot(i int) int { return int(p >> (4 + 4*uint(i)) & 0xF) }
func (p perm) freeSlot() int  { return p.slot(p.count()) }

func (p perm) insert(pos int) perm {
	n := p.count()
	s := uint64(p.freeSlot())
	body := uint64(p) >> 4
	low := body & (1<<(4*uint(n)) - 1)
	high := body >> (4 * uint(n+1)) << (4 * uint(n))
	body = low | high
	low = body & (1<<(4*uint(pos)) - 1)
	high = body >> (4 * uint(pos)) << (4 * uint(pos+1))
	body = low | high | s<<(4*uint(pos))
	return perm(body<<4 | uint64(n+1))
}

func (p perm) remove(pos int) perm {
	n := p.count()
	s := uint64(p.slot(pos))
	body := uint64(p) >> 4
	low := body & (1<<(4*uint(pos)) - 1)
	high := body >> (4 * uint(pos+1)) << (4 * uint(pos))
	body = low | high
	low = body & (1<<(4*uint(n-1)) - 1)
	high = body >> (4 * uint(n-1)) << (4 * uint(n))
	body = low | high | s<<(4*uint(n-1))
	return perm(body<<4 | uint64(n-1))
}

// swapFree exchanges live position pos with free position j (pos < count ≤
// j < LeafWidth): the free slot takes pos's place in key order and the slot
// it replaces joins the free area. A relocated entry's key is the one it
// replaces, so order and count are unchanged.
func (p perm) swapFree(pos, j int) perm {
	a, b := 4+4*uint(pos), 4+4*uint(j)
	sa, sb := uint64(p)>>a&0xF, uint64(p)>>b&0xF
	return perm(uint64(p)&^(0xF<<a|0xF<<b) | sb<<a | sa<<b)
}

func (p perm) truncate(keep int) perm {
	return perm(uint64(p)&^0xF | uint64(keep))
}

// identityPrefix returns a permutation whose live entries are slots
// 0..n-1 in order — what a freshly filled split sibling uses.
func identityPrefix(n int) perm {
	return perm(uint64(permIdentity)&^0xF | uint64(n))
}

var _ = nvm.WordsPerLine // layout constants assume 8-word lines
