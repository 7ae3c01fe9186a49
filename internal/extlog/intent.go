// Intent log: the durable redo side of multi-key transactions (see
// internal/txn and DESIGN.md "Crash-atomic transactions").
//
// Where the undo log (extlog.Log) records pre-images so a failed epoch can
// be rolled back, the intent log records a transaction's *post-images* —
// its full write set — so a transaction whose fenced commit mark reached
// NVM can be replayed after the epoch it ran in is rolled back. The record
// is durable before any of its writes is applied, so the replay covers
// them all: a committed transaction's inline-value updates carry no undo
// of their own. The two logs share one segment discipline (region in
// extlog.go): per-writer segments appended without any cross-thread
// coordination, cursors reset at every epoch boundary (the global flush
// makes applied writes durable, retiring the epoch's intents), and a
// generation counter that recovery bumps so replayed records can never
// replay twice.
//
// Record layout (header words, then content packed from word 6 on):
//
//	word 0: seq       — cluster-wide commit sequence number (0 = virgin)
//	word 1: epoch     — epoch the commit executed in
//	word 2: meta      — content bytes (low 32) | generation (high 32)
//	word 3: checksum  — FNV-1a over header fields and content words
//	word 4: mark      — 0 while pending; == seq once committed
//	word 5: topoVer   — topology version the commit executed under
//	words 6…: ops     — see AppendIntent
//
// Content starts in the header line: that line is written back only by
// MarkCommitted, after the last content store, so its content words
// persist with the header and the checksum vouches for them like for the
// later lines. A small write set thus needs one header line and at most
// one content line. topoVer is load-bearing: after a crash mid-reshard,
// recovery replays only records committed under the topology the durable
// manifest says is live, so a replayed write can never land on the wrong
// side of a cutover (see internal/txn and DESIGN.md §13).
//
// One fence per record. AppendIntent stores the record and starts the
// writebacks of the content lines past the header line but does not
// fence; MarkCommitted sets the mark — which shares the header's cache
// line, so header, mark and the content words there persist as one
// PCSO-atomic line — writes the header line back and fences once. That
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
	"encoding/binary"
	"math/bits"

	"incll/internal/epoch"
	"incll/internal/nvm"
)

const (
	iSeq      = 0
	iEpoch    = 1
	iMeta     = 2
	iChecksum = 3
	iMark     = 4
	iTopoVer  = 5
	iContent  = 6 // content starts in the header line

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
	Seq   uint64
	Epoch uint64
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
	region
	writers []IntentWriter

	// Hook, when non-nil, is invoked once the record is stored and its
	// content written back, at the end of AppendIntent ("intent-written"),
	// and between MarkCommitted's header writeback and its fence
	// ("mark-written"). Crash-injection tests panic out of it to stop the
	// protocol exactly there. Never set outside tests.
	Hook func(point string)
}

// NewIntentLog attaches an intent log to the region at off
// (RegionWords(segWords, writers) words). Like the undo log, cursors
// reset at every epoch boundary; the caller drives recovery (ScanIntents /
// RetireIntents) after all stores are attached.
func NewIntentLog(a *nvm.Arena, m *epoch.Manager, off, segWords uint64, writers int) *IntentLog {
	l := &IntentLog{writers: make([]IntentWriter, writers)}
	l.attach(a, m, off, segWords, writers, func(i int) *segment {
		l.writers[i].log = l
		return &l.writers[i].segment
	})
	return l
}

// Writer returns writer i's interface. A writer is not safe for concurrent
// use: the transaction manager's per-worker commit lock keeps the commits
// of one worker index — the only users of writer i — mutually exclusive.
func (l *IntentLog) Writer(i int) *IntentWriter { return &l.writers[i] }

// IntentWriter appends intents to one segment.
type IntentWriter struct {
	log *IntentLog
	segment
	buf []byte // encodeIntent scratch, reused across appends
}

// encodeIntent appends a write set's content to b: per op,
// uvarint(klen), uvarint(vlen<<1 | delete), the key bytes, then the value
// bytes (none for a delete). Ops run back to back; AppendIntent packs the
// bytes eight to a word, big-endian.
func encodeIntent(b []byte, ops []IntentOp) []byte {
	for _, op := range ops {
		val, del := op.Val, uint64(0)
		if op.Delete {
			val, del = nil, 1
		}
		b = binary.AppendUvarint(b, uint64(len(op.Key)))
		b = binary.AppendUvarint(b, uint64(len(val))<<1|del)
		b = append(append(b, op.Key...), val...)
	}
	return b
}

// decodeIntent parses encodeIntent's output; ok=false if b is not a whole
// number of well-formed ops. Keys and values alias b.
func decodeIntent(b []byte) (ops []IntentOp, ok bool) {
	for len(b) > 0 {
		klen, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, false
		}
		vd, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return nil, false
		}
		b = b[n+m:]
		vlen := vd >> 1
		if klen > uint64(len(b)) || vlen > uint64(len(b))-klen {
			return nil, false
		}
		op := IntentOp{Key: b[:klen:klen], Delete: vd&1 != 0}
		if !op.Delete {
			op.Val = b[klen : klen+vlen : klen+vlen]
		}
		ops = append(ops, op)
		b = b[klen+vlen:]
	}
	return ops, true
}

// intentContentBytes returns len(encodeIntent(nil, ops)) without encoding.
func intentContentBytes(ops []IntentOp) uint64 {
	uvarintLen := func(x uint64) uint64 { return uint64(bits.Len64(x|1)+6) / 7 }
	var n uint64
	for _, op := range ops {
		klen, vlen := uint64(len(op.Key)), uint64(len(op.Val))
		if op.Delete {
			vlen = 0
		}
		n += uvarintLen(klen) + uvarintLen(vlen<<1) + klen + vlen
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
	return intentEntryWords(intentContentBytes(ops)) <= l.segWords
}

// AppendIntent writes the intent record for a pending transaction — seq,
// epoch, topology version and the full write set — with a zero commit
// mark, and starts the writebacks of its content lines past the header
// line. It does not fence and does not write the header line back:
// MarkCommitted stores to that line again, and a line must not be stored
// to between its writeback and its fence (see nvm.Arena). Nothing is
// durable until MarkCommitted's fence. Returns the record's arena offset,
// or ok=false if the segment is full (the caller must force an epoch
// boundary, which resets the cursor, and retry).
func (w *IntentWriter) AppendIntent(seq, epochNum, topoVer uint64, ops []IntentOp) (entry uint64, ok bool) {
	l := w.log
	a := l.arena
	for _, op := range ops {
		if len(op.Key) >= MaxIntentKeyLen || (!op.Delete && len(op.Val) >= MaxIntentValLen) {
			// Callers gate on IntentFits, which rejects oversize ops.
			panic("extlog: intent op too long (caller skipped IntentFits)")
		}
	}
	w.buf = encodeIntent(w.buf[:0], ops)
	content := uint64(len(w.buf))
	need := intentEntryWords(content)
	if w.cursor+need > l.segWords {
		return 0, false
	}
	e := w.base + w.cursor

	meta := content | l.generation<<32
	sum := checksumSeed(seq, epochNum, meta, topoVer)
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
	for i := 0; i < len(w.buf); i += 8 {
		v := binary.BigEndian.Uint64(w.buf[i:])
		a.Store(e+iContent+uint64(i/8), v)
		sum = checksumStep(sum, v)
	}

	a.Store(e+iMark, 0)
	a.Store(e+iEpoch, epochNum)
	a.Store(e+iMeta, meta)
	a.Store(e+iTopoVer, topoVer)
	a.Store(e+iChecksum, sum)
	a.Store(e+iSeq, seq)
	if need > nvm.WordsPerLine {
		a.WritebackRange(e+nvm.WordsPerLine, need-nvm.WordsPerLine)
	}
	if l.Hook != nil {
		l.Hook("intent-written")
	}
	w.cursor += need
	return e, true
}

// MarkCommitted sets the record's commit mark, writes the header line
// back and fences: the record's one fence, which completes the content
// writebacks AppendIntent started along with the header line and the
// content it holds, and so the transaction's commit and durability point.
// The mark shares the header line, so it is PCSO-atomic with the checksum
// that vouches for the content.
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
// given content size in bytes.
func intentEntryWords(content uint64) uint64 { return lineWords(iContent + (content+7)/8) }

// ScanIntents decodes every checksum-valid record of the current
// generation, in segment order per writer. A torn or stale record stops
// that segment's scan (everything past it predates the segment's reuse).
// The caller decides replay: a Committed record whose epoch failed must be
// re-applied; every other record is inert.
func (l *IntentLog) ScanIntents() []IntentRecord {
	a := l.arena
	var recs []IntentRecord
	for _, seg := range l.segs {
		cursor := uint64(0)
		for cursor < l.segWords {
			e := seg.base + cursor
			seq := a.Load(e + iSeq)
			meta := a.Load(e + iMeta)
			content := meta & 0xFFFFFFFF
			gen := meta >> 32
			if seq == 0 || gen != l.generation || intentEntryWords(content) > l.segWords-cursor {
				break // virgin space, stale generation, or garbage length
			}
			epochNum := a.Load(e + iEpoch)
			topoVer := a.Load(e + iTopoVer)
			sum := checksumSeed(seq, epochNum, meta, topoVer)
			words := (content + 7) / 8
			buf := make([]byte, 0, words*8)
			for j := uint64(0); j < words; j++ {
				v := a.Load(e + iContent + j)
				sum = checksumStep(sum, v)
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
			if sum != a.Load(e+iChecksum) {
				break // torn record: its transaction's one fence never completed
			}
			ops, ok := decodeIntent(buf[:content])
			if !ok {
				break
			}
			recs = append(recs, IntentRecord{
				Seq:       seq,
				Epoch:     epochNum,
				TopoVer:   topoVer,
				Committed: a.Load(e+iMark) == seq,
				Ops:       ops,
			})
			cursor += intentEntryWords(content)
		}
	}
	return recs
}

// RetireIntents durably bumps the generation, so records replayed by this
// recovery can never replay again. The caller must first make the replayed
// state durable (a full checkpoint), exactly like Log.Recover's flush-
// before-bump ordering.
func (l *IntentLog) RetireIntents() { l.retire() }
