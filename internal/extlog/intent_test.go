package extlog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"incll/internal/epoch"
	"incll/internal/nvm"
)

func intentFixture(t *testing.T, segWords uint64, writers int) (*nvm.Arena, *epoch.Manager, *IntentLog) {
	t.Helper()
	a := nvm.New(nvm.Config{Words: 1 << 16})
	eOff := a.Reserve(epoch.HeaderWords)
	off := a.Reserve(RegionWords(segWords, writers))
	m, _ := epoch.Open(a, eOff)
	return a, m, NewIntentLog(a, m, off, segWords, writers)
}

func TestIntentRoundTrip(t *testing.T) {
	_, m, l := intentFixture(t, 1<<10, 2)
	ops := []IntentOp{
		{Key: []byte{1, 2, 3}, Val: []byte{77}},                                  // short key, short value
		{Key: []byte{9, 8, 7, 6, 5, 4, 3, 2}, Val: []byte("an 18-byte payload")}, // word-exact key, multi-word value
		{Key: []byte("a long key spanning words"), Delete: true},                 // multi-word delete
		{Key: []byte{0xFF, 0, 0xAA, 1, 2, 3, 4, 5, 6, 7, 8, 9}, Val: []byte{}},   // 12-byte key, empty value
	}
	entry, ok := l.Writer(1).AppendIntent(42, m.Current(), 1, ops)
	if !ok {
		t.Fatal("append failed on an empty segment")
	}

	recs := l.ScanIntents()
	if len(recs) != 1 {
		t.Fatalf("scan found %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Seq != 42 || r.Epoch != m.Current() || r.TopoVer != 1 {
		t.Fatalf("header mismatch: %+v", r)
	}
	if r.Committed {
		t.Fatal("record committed before MarkCommitted")
	}
	if !sameOps(r.Ops, ops) {
		t.Fatalf("decoded %+v, want %+v", r.Ops, ops)
	}

	l.MarkCommitted(entry)
	if recs = l.ScanIntents(); !recs[0].Committed {
		t.Fatal("record not committed after MarkCommitted")
	}
}

func TestIntentRetireHidesRecords(t *testing.T) {
	_, m, l := intentFixture(t, 1<<10, 1)
	e, _ := l.Writer(0).AppendIntent(1, m.Current(), 1, []IntentOp{{Key: []byte{1}, Val: []byte{1}}})
	l.MarkCommitted(e)
	l.RetireIntents()
	if recs := l.ScanIntents(); len(recs) != 0 {
		t.Fatalf("scan found %d records after retire, want 0", len(recs))
	}
}

func TestIntentSegmentFullAndCursorReset(t *testing.T) {
	_, m, l := intentFixture(t, nvm.WordsPerLine, 1) // room for exactly one small record
	small := []IntentOp{{Key: []byte{1}, Val: []byte{1}}}
	if _, ok := l.Writer(0).AppendIntent(1, m.Current(), 1, small); !ok {
		t.Fatal("first append should fit")
	}
	if _, ok := l.Writer(0).AppendIntent(2, m.Current(), 1, small); ok {
		t.Fatal("second append should report a full segment")
	}
	m.Advance() // boundary resets the cursor
	if _, ok := l.Writer(0).AppendIntent(3, m.Current(), 1, small); !ok {
		t.Fatal("append after advance should fit again")
	}
}

func TestIntentTornRecordIgnored(t *testing.T) {
	// 1+1+8+27 = 37 content bytes: words 6–7 share the header line, 8–9 fill
	// the content line, and word 10 holds the last five bytes and three of
	// zero padding.
	ops := []IntentOp{{Key: []byte("8bytekey"), Val: []byte("a 27-byte value, word-odd..")}}
	for _, c := range []struct {
		name string
		word uint64
	}{
		{"header-line content word", iContent},
		{"content-line word", nvm.WordsPerLine},
		{"last padded word", iContent + 4},
	} {
		a, m, l := intentFixture(t, 1<<10, 1)
		e, _ := l.Writer(0).AppendIntent(7, m.Current(), 1, ops)
		l.MarkCommitted(e)
		// Corrupt the word's low bytes, as a torn line would (for the last
		// word these are padding).
		a.Store(e+c.word, a.Load(e+c.word)^0xDEAD)
		if recs := l.ScanIntents(); len(recs) != 0 {
			t.Fatalf("%s: scan accepted a torn record: %+v", c.name, recs)
		}
	}
}

func TestIntentFits(t *testing.T) {
	_, _, l := intentFixture(t, 2*nvm.WordsPerLine, 1)
	if !l.IntentFits([]IntentOp{{Key: []byte{1}, Val: []byte{1}}}) {
		t.Fatal("small op should fit")
	}
	big := make([]IntentOp, 64)
	for i := range big {
		big[i] = IntentOp{Key: []byte{byte(i)}, Val: []byte{1}}
	}
	if l.IntentFits(big) {
		t.Fatal("64 ops cannot fit a two-line segment")
	}
}

// transferOps is the benchmark's transfer write set: four balances and the
// client's ordinal, each an 8-byte key with a 3-byte value.
func transferOps() []IntentOp {
	ops := make([]IntentOp, 5)
	for i := range ops {
		ops[i] = IntentOp{Key: []byte{0, 0, 0, 0, 0, 1, 0x86, byte(i)}, Val: []byte{0x0F, 0x42, byte(i)}}
	}
	return ops
}

// TestIntentRecordFootprint pins the record encoding: a write set's content
// bytes, the lines its record takes, and a round trip across the uvarint
// length boundaries.
func TestIntentRecordFootprint(t *testing.T) {
	bytesOf := func(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }
	one := []byte{1}
	for _, c := range []struct {
		name         string
		ops          []IntentOp
		bytes, lines uint64
	}{
		{"transfer", transferOps(), 65, 2},
		{"one-byte put", []IntentOp{{Key: one, Val: one}}, 4, 1},
		{"klen 127", []IntentOp{{Key: bytesOf(127), Val: one}}, 130, 3},
		{"klen 128", []IntentOp{{Key: bytesOf(128), Val: one}}, 132, 3},
		{"vlen 63", []IntentOp{{Key: one, Val: bytesOf(63)}}, 66, 2},
		{"vlen 64", []IntentOp{{Key: one, Val: bytesOf(64)}}, 68, 2},
		{"empty value", []IntentOp{{Key: one, Val: []byte{}}}, 3, 1},
		{"deletes", []IntentOp{{Key: bytesOf(8), Delete: true}, {Key: one, Val: bytesOf(3), Delete: true}}, 13, 1},
		{"max key - 1", []IntentOp{{Key: bytesOf(MaxIntentKeyLen - 1), Val: one}}, 65540, 1025},
		{"max value - 1", []IntentOp{{Key: one, Val: bytesOf(MaxIntentValLen - 1)}}, 65540, 1025},
	} {
		_, m, l := intentFixture(t, 1<<14, 1)
		if got := intentContentBytes(c.ops); got != c.bytes {
			t.Fatalf("%s: %d content bytes, want %d", c.name, got, c.bytes)
		}
		w := l.Writer(0)
		if _, ok := w.AppendIntent(1, m.Current(), 1, c.ops); !ok {
			t.Fatalf("%s: append failed on an empty segment", c.name)
		}
		if got := w.cursor / nvm.WordsPerLine; got != c.lines {
			t.Fatalf("%s: record takes %d lines, want %d", c.name, got, c.lines)
		}
		recs := l.ScanIntents()
		if len(recs) != 1 || !sameOps(recs[0].Ops, c.ops) {
			t.Fatalf("%s: scanned %+v, want the %d ops appended", c.name, recs, len(c.ops))
		}
	}

	_, _, l := intentFixture(t, 1<<14, 1)
	for _, op := range []IntentOp{{Key: bytesOf(MaxIntentKeyLen), Val: one}, {Key: one, Val: bytesOf(MaxIntentValLen)}} {
		if l.IntentFits([]IntentOp{op}) {
			t.Fatalf("IntentFits accepted a %d-byte key with a %d-byte value", len(op.Key), len(op.Val))
		}
	}
}

// sameOps compares decoded ops with the appended ones; a delete's value is
// not part of the record.
func sameOps(got, want []IntentOp) bool {
	if len(got) != len(want) {
		return false
	}
	for i, op := range got {
		w := want[i]
		if w.Delete {
			w.Val = nil
		}
		if !bytes.Equal(op.Key, w.Key) || op.Delete != w.Delete || op.Delete && op.Val != nil || !bytes.Equal(op.Val, w.Val) {
			return false
		}
	}
	return true
}

// FuzzIntentRoundTrip decodes arbitrary bytes into a write set: five bytes
// per op give a flag byte (bit 0 delete; bits 1 and 2 lift the key and value
// lengths past 16 bits) and the two little-endian 16-bit lengths; key and
// value bytes follow from the input, padded with the flag byte. The write
// set either fails IntentFits or appends, scans back identical and marks
// committed.
func FuzzIntentRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 0, 3, 0, 'a', 'c', 'c', 'o', 'u', 'n', 't', '1', 0x0F, 0x42, 0x40})
	f.Add([]byte{1, 127, 0, 0, 0, 0, 128, 0, 64, 0, 2, 255, 255, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []IntentOp
		take := func(n int, pad byte) []byte {
			b := make([]byte, n)
			copy(b, data)
			for i := len(data); i < n; i++ {
				b[i] = pad
			}
			data = data[min(n, len(data)):]
			return b
		}
		for len(data) >= 5 && len(ops) < 64 {
			flag := data[0]
			klen := int(binary.LittleEndian.Uint16(data[1:])) | int(flag>>1&1)<<16
			vlen := int(binary.LittleEndian.Uint16(data[3:])) | int(flag>>2&1)<<16
			data = data[5:]
			ops = append(ops, IntentOp{Key: take(klen, flag), Val: take(vlen, flag), Delete: flag&1 != 0})
		}

		_, m, l := intentFixture(t, 1<<14, 1)
		if !l.IntentFits(ops) {
			return
		}
		e, ok := l.Writer(0).AppendIntent(1, m.Current(), 1, ops)
		if !ok {
			t.Fatalf("a write set IntentFits accepts did not append to an empty segment: %d ops", len(ops))
		}
		recs := l.ScanIntents()
		if len(recs) != 1 || recs[0].Committed || !sameOps(recs[0].Ops, ops) {
			t.Fatalf("scan of an appended record = %d records, want 1 uncommitted with the %d ops appended", len(recs), len(ops))
		}
		l.MarkCommitted(e)
		if recs = l.ScanIntents(); len(recs) != 1 || !recs[0].Committed || !sameOps(recs[0].Ops, ops) {
			t.Fatal("record not scanned back committed after MarkCommitted")
		}
	})
}
