package repl

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"incll/internal/core"
	"incll/internal/nvm"
)

func newStore(t *testing.T) *core.Store {
	t.Helper()
	a := nvm.New(nvm.Config{Words: 1 << 21})
	s, _ := core.Open(a, core.Config{LogSegWords: 1 << 14, HeapWords: 1 << 20})
	return s
}

func TestReplWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	var payload []byte
	payload = fw.appendKVRecord(payload, []byte("alpha"), []byte("value-1"))
	payload = fw.appendKVRecord(payload, []byte("beta"), nil)
	if err := fw.writeFrame(ftKV, payload); err != nil {
		t.Fatal(err)
	}
	var ch []byte
	ch = appendU64(ch, 7)
	ch = fw.appendChangeRecord(ch, byte(core.ChangeDelete), []byte("alpha"), nil)
	if err := fw.writeFrame(ftChanges, ch); err != nil {
		t.Fatal(err)
	}

	fr := newFrameReader(bytes.NewReader(buf.Bytes()))
	ft, p, err := fr.readFrame()
	if err != nil || ft != ftKV {
		t.Fatalf("frame 1: type %d err %v", ft, err)
	}
	k, v, off, err := fr.parseKVRecord(p, 0)
	if err != nil || string(k) != "alpha" || string(v) != "value-1" {
		t.Fatalf("record 1: %q %q %v", k, v, err)
	}
	k, v, off, err = fr.parseKVRecord(p, off)
	if err != nil || string(k) != "beta" || len(v) != 0 {
		t.Fatalf("record 2: %q %q %v", k, v, err)
	}
	if off != len(p) {
		t.Fatalf("trailing bytes in kv frame")
	}
	ft, p, err = fr.readFrame()
	if err != nil || ft != ftChanges {
		t.Fatalf("frame 2: type %d err %v", ft, err)
	}
	op, k, _, _, err := fr.parseChangeRecord(p, 8)
	if err != nil || core.ChangeOp(op) != core.ChangeDelete || string(k) != "alpha" {
		t.Fatalf("change record: op %d key %q err %v", op, k, err)
	}
	// Writer and reader fold identical record bytes into the stream sum.
	if fr.sum != fw.sum {
		t.Fatalf("stream sum diverged: writer %#x reader %#x", fw.sum, fr.sum)
	}
}

// TestReplWireCorruptionDetected pins the snapshot side of the shared
// frame codec's error contract: every malformed frame, and a stream that
// ends at a frame boundary (a snapshot ends only after its end frame), is
// a wrapped ErrBadStream.
func TestReplWireCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	payload := fw.appendKVRecord(nil, []byte("key"), []byte("val"))
	if err := fw.writeFrame(ftKV, payload); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // substring of the error detail
	}{
		{"payload bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "frame checksum mismatch"},
		{"crc mismatch", func(b []byte) []byte { b[9] ^= 0x01; return b }, "frame checksum mismatch"},
		{"bad magic", func(b []byte) []byte { b[1] ^= 0xFF; return b }, "bad frame magic"},
		{"oversize length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:], MaxFramePayload+1)
			return b
		}, "exceeds limit"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-2] }, "truncated frame payload"},
		{"truncated header", func(b []byte) []byte { return b[:FrameHdrBytes-1] }, "truncated at frame header"},
	}
	for _, tc := range cases {
		fr := newFrameReader(bytes.NewReader(tc.mutate(append([]byte(nil), raw...))))
		_, _, err := fr.readFrame()
		if !errors.Is(err, ErrBadStream) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want ErrBadStream with %q", tc.name, err, tc.want)
		}
	}

	// EOF exactly at a frame boundary: the frame reads back, and the
	// missing next header is a truncated stream, not a clean end.
	fr := newFrameReader(bytes.NewReader(raw))
	if ft, _, err := fr.readFrame(); err != nil || ft != ftKV {
		t.Fatalf("valid frame: type %d, err %v", ft, err)
	}
	if _, _, err := fr.readFrame(); !errors.Is(err, ErrBadStream) || !strings.Contains(err.Error(), "truncated at frame header") {
		t.Fatalf("EOF at frame boundary: err %v, want ErrBadStream", err)
	}
}

// TestWireGoldenFrame pins the snapshot stream's wire bytes (format
// version 1), so streams and peers of other builds stay readable: the
// writer must reproduce this kv frame byte for byte and the reader decode
// it back, so a reordered or resized header, or a changed record
// encoding, fails here.
func TestWireGoldenFrame(t *testing.T) {
	golden, err := hex.DecodeString("4952504c0214000000eb98996f0507616c70686176616c75652d31040062657461")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	p := fw.appendKVRecord(nil, []byte("alpha"), []byte("value-1"))
	p = fw.appendKVRecord(p, []byte("beta"), nil)
	if err := fw.writeFrame(ftKV, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("writer produced\n%x\nwant\n%x", buf.Bytes(), golden)
	}
	fr := newFrameReader(bytes.NewReader(golden))
	ft, p, err := fr.readFrame()
	if err != nil || ft != ftKV {
		t.Fatalf("golden frame: type %d, err %v", ft, err)
	}
	k1, v1, off, err := fr.parseKVRecord(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	k2, v2, off, err := fr.parseKVRecord(p, off)
	if err != nil || off != len(p) {
		t.Fatalf("second record: next %d of %d, err %v", off, len(p), err)
	}
	if string(k1) != "alpha" || string(v1) != "value-1" || string(k2) != "beta" || len(v2) != 0 {
		t.Fatalf("golden records decode to (%q,%q) (%q,%q)", k1, v1, k2, v2)
	}
}

func TestReplJournalReleaseBarrier(t *testing.T) {
	s := newStore(t)
	h := NewHub([]*core.Store{s}, 0)
	sub := h.Subscribe()
	defer sub.Close()

	s.PutBytes([]byte("a"), []byte("1"))
	s.PutBytes([]byte("b"), []byte("2"))
	s.Delete([]byte("a"))

	// Nothing released before the checkpoint commit.
	if got := sub.PendingBytes(); got != 0 {
		t.Fatalf("pending before commit: %d", got)
	}
	epoch := s.Epochs().Current()
	s.Advance()

	b, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != epoch {
		t.Fatalf("batch epoch %d, want %d", b.Epoch, epoch)
	}
	if len(b.Entries) != 3 {
		t.Fatalf("entries: %d, want 3", len(b.Entries))
	}
	want := []struct {
		op  core.ChangeOp
		key string
	}{{core.ChangePut, "a"}, {core.ChangePut, "b"}, {core.ChangeDelete, "a"}}
	for i, w := range want {
		e := b.Entries[i]
		if e.Op != w.op || string(e.Key) != w.key || e.Epoch != epoch {
			t.Fatalf("entry %d: op %d key %q epoch %d", i, e.Op, e.Key, e.Epoch)
		}
	}
}

func TestReplJournalEmptyEpochAdvancesHorizon(t *testing.T) {
	s := newStore(t)
	h := NewHub([]*core.Store{s}, 0)
	sub := h.Subscribe()
	defer sub.Close()
	s.Advance() // epoch with no writes
	b, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 0 || b.Epoch == 0 {
		t.Fatalf("empty-epoch batch: %d entries, epoch %d", len(b.Entries), b.Epoch)
	}
}

func TestReplJournalDropsWithoutSubscribers(t *testing.T) {
	s := newStore(t)
	h := NewHub([]*core.Store{s}, 0)
	s.PutBytes([]byte("early"), []byte("x"))
	s.Advance()
	sub := h.Subscribe()
	defer sub.Close()
	s.PutBytes([]byte("late"), []byte("y"))
	s.Advance()
	b, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 1 || string(b.Entries[0].Key) != "late" {
		t.Fatalf("expected only post-subscribe entry, got %d entries", len(b.Entries))
	}
	if h.bytes != 0 {
		t.Fatalf("journal retains %d bytes after drain", h.bytes)
	}
}

func TestReplLaggedSubscriberCutLoose(t *testing.T) {
	// Two shards so a release wave can exceed the budget without any one
	// shard's unreleased journal tripping the overrun cut: per-shard
	// unreleased stays under budget, the merged wave lands over it.
	s1, s2 := newStore(t), newStore(t)
	h := NewHub([]*core.Store{s1, s2}, 1000)
	sub := h.Subscribe()
	// Each wave stays under the budget while unreleased (so the overrun
	// cut never fires); the released backlog crosses it after two
	// unconsumed waves.
	wave := func() {
		for i := 0; i < 3; i++ {
			s1.PutBytes([]byte{1, byte(i)}, bytes.Repeat([]byte{byte(i)}, 48))
			s2.PutBytes([]byte{2, byte(i)}, bytes.Repeat([]byte{byte(i)}, 48))
		}
		s1.Advance()
		s2.Advance()
	}

	// An over-budget backlog does NOT cut a prompt subscriber on first
	// sight (the strike rule): the consumer gets one collect-to-collect
	// window before the floor position counts as stuck.
	wave()
	wave()
	if b, err := sub.Next(); err != nil || len(b.Entries) != 12 {
		t.Fatalf("prompt subscriber after oversized backlog: %d entries, err %v", len(b.Entries), err)
	}

	// A subscriber that makes no progress across two over-budget collects
	// is cut loose. PendingBytes forces the collects without consuming.
	wave()
	_ = sub.PendingBytes() // collect: under budget, no strike
	wave()
	_ = sub.PendingBytes() // collect: over budget, strike recorded
	wave()
	if _, err := sub.Next(); !errors.Is(err, ErrStreamLost) { // collect: no progress since the strike
		t.Fatalf("stuck subscriber: err %v, want ErrStreamLost", err)
	}
	// The journal itself must have shed the retained bytes.
	if h.bytes != 0 {
		t.Fatalf("journal still retains %d bytes", h.bytes)
	}
}

func TestReplHubCloseSemantics(t *testing.T) {
	s := newStore(t)
	h := NewHub([]*core.Store{s}, 0)
	sub := h.Subscribe()
	s.PutBytes([]byte("k"), []byte("v"))
	s.Shutdown() // clean shutdown commits the running epoch and fires the hook
	h.Close(true)
	b, err := sub.Next()
	if err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if len(b.Entries) != 1 {
		t.Fatalf("drain delivered %d entries", len(b.Entries))
	}
	if _, err := sub.Next(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("after drain: err %v, want ErrStreamClosed", err)
	}

	s2 := newStore(t)
	h2 := NewHub([]*core.Store{s2}, 0)
	sub2 := h2.Subscribe()
	h2.Close(false) // crash
	if _, err := sub2.Next(); !errors.Is(err, ErrStreamLost) {
		t.Fatalf("after crash: err %v, want ErrStreamLost", err)
	}
}

func TestReplWireHugeLengthRejected(t *testing.T) {
	// A CRC-consistent frame whose record claims a 2^64-1-byte key must
	// fail with ErrBadStream, not overflow into a slice-bounds panic.
	var payload []byte
	payload = append(payload, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01) // klen = 2^64-1
	payload = append(payload, 0x02)                                                       // vlen = 2
	payload = append(payload, 'a', 'b', 'c')
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	if err := fw.writeFrame(ftKV, payload); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(bytes.NewReader(buf.Bytes()))
	_, p, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fr.parseKVRecord(p, 0); !errors.Is(err, ErrBadStream) {
		t.Fatalf("huge klen: err %v, want ErrBadStream", err)
	}
}

func TestReplUnreleasedOverrunCutsSubscribers(t *testing.T) {
	// A subscriber exists but checkpoints never run: once the unreleased
	// journal outgrows the budget, memory is bounded by sacrificing the
	// stream — every subscriber (even a pinned one) is cut and the
	// journals dropped.
	s := newStore(t)
	h := NewHub([]*core.Store{s}, 1024)
	sub := h.Subscribe()
	pinned := h.SubscribePinned()
	for i := 0; i < 64; i++ {
		s.PutBytes([]byte{byte(i)}, bytes.Repeat([]byte{byte(i)}, 64))
	}
	if _, err := sub.Next(); !errors.Is(err, ErrStreamLost) {
		t.Fatalf("subscriber after overrun: err %v, want ErrStreamLost", err)
	}
	if _, err := pinned.Next(); !errors.Is(err, ErrStreamLost) {
		t.Fatalf("pinned subscriber after overrun: err %v, want ErrStreamLost", err)
	}
	var unreleased uint64
	for i := range h.shards {
		unreleased += h.shards[i].bytes
	}
	if unreleased != 0 || h.bytes != 0 {
		t.Fatalf("journal retains %d unreleased / %d released bytes after overrun", unreleased, h.bytes)
	}
}

func TestReplPinnedSubscriberSurvivesBacklogCut(t *testing.T) {
	// The exporter's pinned subscription lags by construction (it cannot
	// consume during the scan) and must survive the released-backlog cut
	// that removes an equally lagging plain subscriber.
	s := newStore(t)
	h := NewHub([]*core.Store{s}, 2048)
	plain := h.Subscribe()
	pinned := h.SubscribePinned()
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < 16; i++ {
			s.PutBytes([]byte{byte(wave), byte(i)}, bytes.Repeat([]byte{byte(i)}, 64))
		}
		s.Advance()
		// A consumer-side touch collects each wave into the released
		// backlog without consuming it (what a consumer blocked in Next
		// does on its own when woken).
		_ = plain.PendingBytes()
	}
	if _, err := plain.Next(); !errors.Is(err, ErrStreamLost) {
		t.Fatalf("plain laggard: err %v, want ErrStreamLost", err)
	}
	b, err := pinned.Next()
	if err != nil {
		t.Fatalf("pinned laggard: err %v, want full delivery", err)
	}
	if len(b.Entries) != 48 {
		t.Fatalf("pinned delivery: %d entries, want 48", len(b.Entries))
	}
	pinned.Close()
}
