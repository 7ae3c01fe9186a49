// Package extlog implements the paper's external undo log (§4.2): an
// object-granularity log used for modifications that In-Cache-Line Logging
// cannot absorb — node splits and merges, internal-node updates, mixed
// remove-then-insert sequences within one epoch, and conflicting updates to
// one value cache line that cannot relocate into a free slot (a full leaf,
// or a removal or relocation earlier in the epoch; see internal/core's
// incll.go).
//
// A node is logged at most once per epoch (the caller tracks a per-node
// "logged" bit), so log entries are independent of each other and recovery
// can apply them in any order — unlike a classic undo log, which must be
// rolled back in reverse order.
//
// Durability protocol: the entry (pre-image plus checksummed header) is
// written to the log segment, written back, and fenced *before* the caller
// mutates the node. This is the only place the system pays a fence on the
// mutation path.
//
// Crash safety across executions: entries embed a log generation number.
// Recovery applies every checksum-valid entry of the current generation
// whose epoch failed, flushes the repaired state, and only then bumps the
// generation — so a crash at any point during recovery simply re-runs it,
// while entries from previous recoveries can never be replayed.
package extlog

import (
	"sync/atomic"

	"incll/internal/epoch"
	"incll/internal/nvm"
)

const (
	// entry layout, in words
	eEpoch    = 0 // epoch the pre-image belongs to
	eNode     = 1 // word offset of the logged object
	eMeta     = 2 // size in words (low 32) | generation (high 32)
	eChecksum = 3
	eContent  = 4

	// region header (one line)
	hGeneration = 0

	// MaxObjectWords bounds the size of a logged object.
	MaxObjectWords = 256
)

// Log is an external undo log over a durable region, split into one
// segment per writer thread.
type Log struct {
	arena *nvm.Arena
	mgr   *epoch.Manager

	off      uint64 // region start: header line, then segments
	segWords uint64
	writers  []Writer

	generation uint64

	entries atomic.Int64 // entries appended (all writers, this execution)
	words   atomic.Int64 // content words logged
}

// RegionWords returns the region size needed for the given segment size
// and writer count.
func RegionWords(segWords uint64, writers int) uint64 {
	seg := (segWords + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
	return nvm.WordsPerLine + seg*uint64(writers)
}

// New attaches a log to the region at off (RegionWords(segWords, writers)
// words). The caller must invoke Recover exactly once, after all durable
// structures are attached but before mutators start.
func New(a *nvm.Arena, m *epoch.Manager, off, segWords uint64, writers int) *Log {
	seg := (segWords + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
	l := &Log{
		arena:      a,
		mgr:        m,
		off:        off,
		segWords:   seg,
		generation: a.Load(off + hGeneration),
	}
	l.writers = make([]Writer, writers)
	for i := range l.writers {
		l.writers[i] = Writer{log: l, base: off + nvm.WordsPerLine + uint64(i)*seg}
	}
	m.OnAdvance(func(uint64) { l.resetCursors() })
	return l
}

// resetCursors discards the log at an epoch boundary: the global flush has
// just committed everything the entries would undo. The entries themselves
// stay in NVM but become unreachable garbage (their epochs are committed).
func (l *Log) resetCursors() {
	for i := range l.writers {
		l.writers[i].cursor = 0
	}
}

// Writer returns writer i's interface. Each concurrent mutator thread must
// use its own writer; a Writer is not safe for concurrent use.
func (l *Log) Writer(i int) *Writer { return &l.writers[i] }

// Entries returns the number of entries appended during this execution.
func (l *Log) Entries() int64 { return l.entries.Load() }

// ContentWords returns the number of pre-image words appended during this
// execution.
func (l *Log) ContentWords() int64 { return l.words.Load() }

// Writer appends pre-images to one segment.
type Writer struct {
	log    *Log
	base   uint64
	cursor uint64
}

// LogObject captures the current contents of [nodeOff, nodeOff+words) as
// an undo entry and makes the entry durable (writeback + fence) before
// returning. Returns false if the segment is full, in which case the
// caller must force an early epoch boundary (or was configured with too
// small a segment).
func (w *Writer) LogObject(nodeOff, words uint64) bool {
	if words == 0 || words > MaxObjectWords {
		panic("extlog: object size out of range")
	}
	l := w.log
	a := l.arena
	need := entryWords(words)
	if w.cursor+need > l.segWords {
		return false
	}
	e := w.base + w.cursor
	ep := l.mgr.Current()
	sum := checksumSeed(ep, nodeOff, words, l.generation)
	for i := uint64(0); i < words; i++ {
		v := a.Load(nodeOff + i)
		a.Store(e+eContent+i, v)
		sum = checksumStep(sum, v)
	}
	a.Store(e+eEpoch, ep)
	a.Store(e+eNode, nodeOff)
	a.Store(e+eMeta, words|l.generation<<32)
	a.Store(e+eChecksum, sum)
	a.WritebackRange(e, need)
	a.Fence()
	w.cursor += need
	l.entries.Add(1)
	l.words.Add(int64(words))
	return true
}

// entryWords returns the line-aligned footprint of an entry with the given
// content size.
func entryWords(words uint64) uint64 {
	n := eContent + words
	return (n + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
}

// Recover applies every valid entry of the current generation whose epoch
// failed: the pre-image is copied back over the object. It then flushes
// the cache (making all recovery writes durable — including any the caller
// performed before Recover) and durably bumps the generation so the
// entries can never replay. Returns the number of entries applied.
//
// Idempotent under crashes: a crash before the generation bump re-runs the
// same recovery; a crash after it finds no valid entries and a fully
// repaired persistent image.
func (l *Log) Recover() int {
	a := l.arena
	applied := 0
	for i := range l.writers {
		base := l.writers[i].base
		cursor := uint64(0)
		for cursor < l.segWords {
			e := base + cursor
			ep := a.Load(e + eEpoch)
			node := a.Load(e + eNode)
			meta := a.Load(e + eMeta)
			words := meta & 0xFFFFFFFF
			gen := meta >> 32
			if ep == 0 || words == 0 || words > MaxObjectWords || gen != l.generation {
				break // virgin space, torn entry, or stale generation
			}
			sum := checksumSeed(ep, node, words, l.generation)
			for j := uint64(0); j < words; j++ {
				sum = checksumStep(sum, a.Load(e+eContent+j))
			}
			if sum != a.Load(e+eChecksum) {
				break // torn tail entry: its mutation never happened
			}
			if l.mgr.IsFailed(ep) {
				for j := uint64(0); j < words; j++ {
					a.Store(node+j, a.Load(e+eContent+j))
				}
				applied++
			}
			cursor += entryWords(words)
		}
	}
	// Make the repair durable, then retire this generation.
	a.FlushAll()
	l.generation++
	a.Store(l.off+hGeneration, l.generation)
	a.Writeback(l.off)
	a.Fence()
	return applied
}

// FNV-1a over the entry header fields and content words.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func checksumSeed(ep, node, words, gen uint64) uint64 {
	s := uint64(fnvOffset)
	for _, v := range [4]uint64{ep, node, words, gen} {
		s = checksumStep(s, v)
	}
	return s
}

func checksumStep(s, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		s ^= v & 0xFF
		s *= fnvPrime
		v >>= 8
	}
	return s
}
