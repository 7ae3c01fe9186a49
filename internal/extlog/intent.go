// Intent log: the durable redo side of multi-key transactions (see
// internal/txn and DESIGN.md "Crash-atomic transactions").
//
// Where the undo log (extlog.Log) records pre-images so a failed epoch can
// be rolled back, the intent log records a transaction's *post-images* —
// its full write set — so a transaction whose fenced commit mark reached
// NVM can be replayed after the epoch it ran in is rolled back. The record
// is durable before any of its writes is applied, so the replay covers
// them all: a committed transaction's inline-value updates carry no undo
// of their own. The two logs share the same segment discipline: one region
// per arena, split into per-writer segments appended without any
// cross-thread coordination, cursors reset at every epoch boundary (the
// global flush makes applied writes durable, retiring the epoch's
// intents), and a generation counter that recovery bumps so replayed
// records can never replay twice.
//
// Record layout (header line, then line-aligned content):
//
//	word 0: seq       — cluster-wide commit sequence number (0 = virgin)
//	word 1: epoch     — epoch the commit executed in
//	word 2: meta      — content words (low 32) | generation (high 32)
//	word 3: shardSet  — shard summary of the write set (see below)
//	word 4: checksum  — FNV-1a over header fields and content words
//	word 5: mark      — 0 while pending; == seq once committed
//	word 6: topoVer   — topology version the commit executed under
//	words 8…: ops     — see AppendIntent
//
// shardSet is informational (trace/debug): beyond 64 shards the bitset is
// folded mod 64 into one word. Recovery never consults it — replay routes
// each op by key through the live topology — but topoVer is load-bearing:
// after a crash mid-reshard, recovery replays only records committed
// under the topology the durable manifest says is live, so a replayed
// write can never land on the wrong side of a cutover (see internal/txn
// and DESIGN.md §13).
//
// One fence per record. AppendIntent stores the record and issues the
// content lines' writebacks but does not fence; MarkCommitted sets the
// mark — which shares the header's cache line, so header and mark persist
// as one PCSO-atomic line — writes the header back and fences once. That
// fence is the transaction's durability point: it completes content,
// header and mark together. Until it does, the lines of a record persist
// in no particular order, so a crash can leave a marked header over
// content lines that never reached NVM. The checksum is what makes that
// harmless, and atomicity now *relies* on it: a marked header counts only
// if every content word it was computed over is there too; anything less
// fails the comparison and is ignored exactly like a torn record (the
// transaction was never acknowledged, and the caller applies nothing
// before MarkCommitted returns).
package extlog

import (
	"sync/atomic"

	"incll/internal/epoch"
	"incll/internal/nvm"
)

const (
	iSeq      = 0
	iEpoch    = 1
	iMeta     = 2
	iShardSet = 3
	iChecksum = 4
	iMark     = 5
	iTopoVer  = 6
	iContent  = nvm.WordsPerLine // content starts on the second line

	// op encoding, within content: the op header word carries the key
	// length (bits 0..15), the delete bit (16), and the value byte length
	// (bits 32..47); key words then value words follow, bytes packed eight
	// per word.
	opDelete = 1 << 16
	opVShift = 32

	// MaxIntentKeyLen bounds one key's byte length in an intent record.
	MaxIntentKeyLen = 1 << 16
	// MaxIntentValLen bounds one value's byte length in an intent record.
	MaxIntentValLen = 1 << 16
)

// IntentOp is one operation of a transaction's write set. Val carries the
// byte value a put writes (nil and unused for deletes).
type IntentOp struct {
	Key    []byte
	Val    []byte
	Delete bool
}

// IntentRecord is one decoded intent, as recovery sees it.
type IntentRecord struct {
	Seq      uint64
	Epoch    uint64
	ShardSet uint64
	// TopoVer is the topology version the transaction committed under;
	// recovery skips records from a topology that is no longer live.
	TopoVer uint64
	// Committed reports whether the fenced commit mark reached NVM: a
	// committed record is replayed if its epoch failed; an uncommitted one
	// is ignored (nothing of it was applied).
	Committed bool
	Ops       []IntentOp
}

// IntentLog is an intent region over one arena: a generation header line
// followed by one segment per writer.
type IntentLog struct {
	arena *nvm.Arena
	mgr   *epoch.Manager

	off      uint64
	segWords uint64
	writers  []IntentWriter

	generation uint64

	appended atomic.Int64

	// Hook, when non-nil, is invoked once the record is stored and its
	// content written back, at the end of AppendIntent ("intent-written"),
	// and between MarkCommitted's header writeback and its fence
	// ("mark-written"). Crash-injection tests panic out of it to stop the
	// protocol exactly there. Never set outside tests.
	Hook func(point string)
}

// IntentRegionWords returns the region size needed for the given per-writer
// segment size and writer count.
func IntentRegionWords(segWords uint64, writers int) uint64 {
	return RegionWords(segWords, writers)
}

// NewIntentLog attaches an intent log to the region at off
// (IntentRegionWords(segWords, writers) words). Like the undo log, cursors
// reset at every epoch boundary; the caller drives recovery (ScanIntents /
// RetireIntents) after all stores are attached.
func NewIntentLog(a *nvm.Arena, m *epoch.Manager, off, segWords uint64, writers int) *IntentLog {
	seg := (segWords + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
	l := &IntentLog{
		arena:      a,
		mgr:        m,
		off:        off,
		segWords:   seg,
		generation: a.Load(off + hGeneration),
	}
	l.writers = make([]IntentWriter, writers)
	for i := range l.writers {
		l.writers[i] = IntentWriter{log: l, base: off + nvm.WordsPerLine + uint64(i)*seg}
	}
	m.OnAdvance(func(uint64) { l.resetCursors() })
	return l
}

// resetCursors discards the log at an epoch boundary: the global flush has
// just made every applied write durable, so the epoch's intents are spent.
func (l *IntentLog) resetCursors() {
	for i := range l.writers {
		l.writers[i].cursor = 0
	}
}

// Writer returns writer i's interface. A writer is not safe for concurrent
// use: the transaction manager's per-worker commit lock keeps the commits
// of one worker index — the only users of writer i — mutually exclusive.
func (l *IntentLog) Writer(i int) *IntentWriter { return &l.writers[i] }

// Appended returns the number of intents appended during this execution.
func (l *IntentLog) Appended() int64 { return l.appended.Load() }

// IntentWriter appends intents to one segment.
type IntentWriter struct {
	log    *IntentLog
	base   uint64
	cursor uint64
}

// intentContentWords returns the content footprint of a write set.
func intentContentWords(ops []IntentOp) uint64 {
	var n uint64
	for _, op := range ops {
		n++ // op header word
		n += (uint64(len(op.Key)) + 7) / 8
		if !op.Delete {
			n += (uint64(len(op.Val)) + 7) / 8
		}
	}
	return n
}

// IntentFits reports whether a write set can ever be appended: every key
// and value within the encoding's length bounds and the whole record
// within one segment. Callers turn a permanent misfit into an error
// instead of retrying after an epoch advance.
func (l *IntentLog) IntentFits(ops []IntentOp) bool {
	for _, op := range ops {
		if len(op.Key) >= MaxIntentKeyLen {
			return false
		}
		if !op.Delete && len(op.Val) >= MaxIntentValLen {
			return false
		}
	}
	return iContent+intentContentWords(ops) <= l.segWords
}

// AppendIntent writes the intent record for a pending transaction — seq,
// epoch, shard set and the full write set — with a zero commit mark, and
// issues the writebacks of its content lines. It does not fence and does
// not write the header line back: MarkCommitted stores to that line again,
// and a line must not be stored to between its writeback and its fence
// (see nvm.Arena). Nothing is durable until MarkCommitted's fence. Returns
// the record's arena offset, or ok=false if the segment is full (the
// caller must force an epoch boundary, which resets the cursor, and
// retry).
func (w *IntentWriter) AppendIntent(seq, epochNum, shardSet, topoVer uint64, ops []IntentOp) (entry uint64, ok bool) {
	l := w.log
	a := l.arena
	content := intentContentWords(ops)
	need := intentEntryWords(content)
	if w.cursor+need > l.segWords {
		return 0, false
	}
	e := w.base + w.cursor

	sum := checksumSeed(seq, epochNum, content|l.generation<<32, shardSet)
	sum = checksumStep(sum, topoVer)
	pos := e + iContent
	store := func(v uint64) {
		a.Store(pos, v)
		sum = checksumStep(sum, v)
		pos++
	}
	packBytes := func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			var word uint64
			for j := 0; j < 8 && i+j < len(b); j++ {
				word |= uint64(b[i+j]) << (56 - 8*uint(j))
			}
			store(word)
		}
	}
	for _, op := range ops {
		if len(op.Key) >= MaxIntentKeyLen || (!op.Delete && len(op.Val) >= MaxIntentValLen) {
			// Callers gate on IntentFits, which rejects oversize ops.
			panic("extlog: intent op too long (caller skipped IntentFits)")
		}
		hdr := uint64(len(op.Key))
		if op.Delete {
			hdr |= opDelete
		} else {
			hdr |= uint64(len(op.Val)) << opVShift
		}
		store(hdr)
		packBytes(op.Key)
		if !op.Delete {
			packBytes(op.Val)
		}
	}

	a.Store(e+iMark, 0)
	a.Store(e+iEpoch, epochNum)
	a.Store(e+iMeta, content|l.generation<<32)
	a.Store(e+iShardSet, shardSet)
	a.Store(e+iTopoVer, topoVer)
	a.Store(e+iChecksum, sum)
	a.Store(e+iSeq, seq)
	if need > iContent {
		a.WritebackRange(e+iContent, need-iContent)
	}
	if l.Hook != nil {
		l.Hook("intent-written")
	}
	w.cursor += need
	l.appended.Add(1)
	return e, true
}

// MarkCommitted sets the record's commit mark, writes the header line
// back and fences: the record's one fence, which completes the content
// writebacks AppendIntent issued along with the header, and so the
// transaction's commit and durability point. The mark shares the header
// line, so it is PCSO-atomic with the checksum that vouches for the
// content.
func (l *IntentLog) MarkCommitted(entry uint64) {
	a := l.arena
	a.Store(entry+iMark, a.Load(entry+iSeq))
	a.Writeback(entry)
	if l.Hook != nil {
		l.Hook("mark-written")
	}
	a.Fence()
}

// intentEntryWords returns the line-aligned footprint of a record with the
// given content size.
func intentEntryWords(content uint64) uint64 {
	n := iContent + content
	return (n + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
}

// ScanIntents decodes every checksum-valid record of the current
// generation, in segment order per writer. A torn or stale record stops
// that segment's scan (everything past it predates the segment's reuse).
// The caller decides replay: a Committed record whose epoch failed must be
// re-applied; every other record is inert.
func (l *IntentLog) ScanIntents() []IntentRecord {
	a := l.arena
	var recs []IntentRecord
	for i := range l.writers {
		base := l.writers[i].base
		cursor := uint64(0)
		for cursor < l.segWords {
			e := base + cursor
			seq := a.Load(e + iSeq)
			meta := a.Load(e + iMeta)
			content := meta & 0xFFFFFFFF
			gen := meta >> 32
			if seq == 0 || gen != l.generation || intentEntryWords(content) > l.segWords-cursor {
				break // virgin space, stale generation, or garbage length
			}
			epochNum := a.Load(e + iEpoch)
			shardSet := a.Load(e + iShardSet)
			topoVer := a.Load(e + iTopoVer)
			sum := checksumSeed(seq, epochNum, meta, shardSet)
			sum = checksumStep(sum, topoVer)
			for j := uint64(0); j < content; j++ {
				sum = checksumStep(sum, a.Load(e+iContent+j))
			}
			if sum != a.Load(e+iChecksum) {
				break // torn record: its transaction's one fence never completed
			}
			rec := IntentRecord{
				Seq:       seq,
				Epoch:     epochNum,
				ShardSet:  shardSet,
				TopoVer:   topoVer,
				Committed: a.Load(e+iMark) == seq,
			}
			pos := e + iContent
			end := pos + content
			valid := true
			unpackBytes := func(n uint64) []byte {
				b := make([]byte, n)
				for i := uint64(0); i < n; i++ {
					b[i] = byte(a.Load(pos+i/8) >> (56 - 8*(i%8)))
				}
				pos += (n + 7) / 8
				return b
			}
			for pos < end {
				hdr := a.Load(pos)
				pos++
				klen := hdr & 0xFFFF
				del := hdr&opDelete != 0
				vlen := uint64(0)
				if !del {
					vlen = hdr >> opVShift & 0xFFFF
				}
				if pos+(klen+7)/8+(vlen+7)/8 > end {
					valid = false
					break
				}
				op := IntentOp{Key: unpackBytes(klen), Delete: del}
				if !del {
					op.Val = unpackBytes(vlen)
				}
				rec.Ops = append(rec.Ops, op)
			}
			if !valid {
				break
			}
			recs = append(recs, rec)
			cursor += intentEntryWords(content)
		}
	}
	return recs
}

// RetireIntents durably bumps the generation, so records replayed by this
// recovery can never replay again. The caller must first make the replayed
// state durable (a full checkpoint), exactly like Log.Recover's flush-
// before-bump ordering.
func (l *IntentLog) RetireIntents() {
	l.generation++
	l.arena.Store(l.off+hGeneration, l.generation)
	l.arena.Writeback(l.off)
	l.arena.Fence()
}
