package replnet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"incll/internal/core"
	"incll/internal/repl"
)

// msg is one message before framing.
type msg struct {
	kind    byte
	payload []byte
}

// frame returns the message stream the writer puts on the wire for msgs.
func frame(tb testing.TB, msgs ...msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := &mconn{bw: bufio.NewWriter(&buf)}
	for _, m := range msgs {
		if err := c.writeMsg(m.kind, m.payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// batchPayload encodes b through the real chunk writer and returns its
// single chunk's payload.
func batchPayload(tb testing.TB, b repl.Batch) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := &mconn{bw: bufio.NewWriter(&buf)}
	if _, err := c.writeBatch(b, 0); err != nil {
		tb.Fatal(err)
	}
	if err := c.flush(); err != nil {
		tb.Fatal(err)
	}
	r := &mconn{br: bufio.NewReader(&buf)}
	kind, p, err := r.readMsg()
	if err != nil || kind != msgBatch {
		tb.Fatalf("re-reading an encoded batch: kind %d, %v", kind, err)
	}
	return append([]byte(nil), p...)
}

// typed reports whether err is one of the decoder's classified errors.
func typed(err error) bool { return errors.Is(err, ErrBadMessage) || errors.Is(err, ErrProtocol) }

// checkPayload runs p through kind's parser and enforces the decoder
// contract: no panic, a classified error for malformed input, and for
// accepted input a payload whose every byte was consumed (dropping the
// last one must be rejected) and whose values survive a round trip through
// the matching encoder.
func checkPayload(t *testing.T, kind byte, p []byte) {
	t.Helper()
	short := p
	if len(p) > 0 {
		short = p[:len(p)-1]
	}
	switch kind {
	case msgHello:
		id, err := parseHello(p)
		if err != nil {
			if !typed(err) {
				t.Fatalf("hello: unclassified error %v", err)
			}
			return
		}
		if len(id) > maxPeerID {
			t.Fatalf("hello: accepted a %d-byte id", len(id))
		}
		if _, err := parseHello(short); err == nil {
			t.Fatalf("hello %x: accepted with its last byte dropped", p)
		}
		if id2, err := parseHello(appendHello(nil, id)); err != nil || id2 != id {
			t.Fatalf("hello: %q re-encodes to %q, %v", id, id2, err)
		}
	case msgWelcome:
		rel, err := parseWelcome(p)
		if err != nil {
			if !typed(err) {
				t.Fatalf("welcome: unclassified error %v", err)
			}
			return
		}
		if _, err := parseWelcome(short); err == nil {
			t.Fatalf("welcome %x: accepted with its last byte dropped", p)
		}
		if rel2, err := parseWelcome(appendWelcome(nil, rel)); err != nil || rel2 != rel {
			t.Fatalf("welcome: %d re-encodes to %d, %v", rel, rel2, err)
		}
	case msgHeartbeat, msgAck:
		nonce, w, err := parseStamp(p)
		if err != nil {
			if !typed(err) {
				t.Fatalf("kind %d: unclassified error %v", kind, err)
			}
			return
		}
		if _, _, err := parseStamp(short); err == nil {
			t.Fatalf("kind %d %x: accepted with its last byte dropped", kind, p)
		}
		if n2, w2, err := parseStamp(appendStamp(nil, nonce, w)); err != nil || n2 != nonce || w2 != w {
			t.Fatalf("kind %d: (%d, %d) re-encodes to (%d, %d), %v", kind, nonce, w, n2, w2, err)
		}
	case msgBatch:
		ck, err := parseBatch(p, nil)
		if err != nil {
			if !typed(err) {
				t.Fatalf("batch: unclassified error %v", err)
			}
			return
		}
		if _, err := parseBatch(short, nil); err == nil {
			t.Fatalf("batch %x: accepted with its last byte dropped", p)
		}
		for _, e := range ck.Entries {
			if e.Epoch > ck.Horizon {
				t.Fatalf("batch: entry epoch %d above horizon %d", e.Epoch, ck.Horizon)
			}
		}
		ck2, err := parseBatch(batchPayload(t, repl.Batch{Epoch: ck.Horizon, Entries: ck.Entries}), nil)
		if err != nil || ck2.Horizon != ck.Horizon || len(ck2.Entries) != len(ck.Entries) {
			t.Fatalf("batch: horizon %d with %d entries re-encodes to %d with %d, %v",
				ck.Horizon, len(ck.Entries), ck2.Horizon, len(ck2.Entries), err)
		}
		for i, e := range ck.Entries {
			e2 := ck2.Entries[i]
			if e2.Op != e.Op || e2.Epoch != e.Epoch || e2.Shard != e.Shard ||
				!bytes.Equal(e2.Key, e.Key) || !bytes.Equal(e2.Val, e.Val) {
				t.Fatalf("batch: entry %d %+v re-encodes to %+v", i, e, e2)
			}
		}
	}
}

// FuzzReplnetParse feeds arbitrary bytes to the replnet message decoder:
// once as a framed stream (readMsg, then the parser its kind selects, until
// the stream ends or fails) and once as a bare payload to every parser, so
// the parsers are reached without the fuzzer having to forge a checksum.
// A follower or primary decodes these bytes straight off the network; the
// contract is that they never panic and classify every malformed input as
// ErrBadMessage (or ErrProtocol for a version mismatch). The corpus is
// seeded from the encoders.
func FuzzReplnetParse(f *testing.F) {
	batch := batchPayload(f, repl.Batch{Epoch: 9, Entries: []repl.Entry{
		{Op: core.ChangePut, Epoch: 9, Shard: 0, Key: []byte("alpha"), Val: []byte("one")},
		{Op: core.ChangeDelete, Epoch: 7, Shard: 3, Key: []byte("beta")},
		{Op: core.ChangePut, Epoch: 8, Shard: 1, Key: []byte{}, Val: bytes.Repeat([]byte("v"), 200)},
	}})
	msgs := []msg{
		{msgHello, appendHello(nil, "follower-1")},
		{msgHello, appendHello(nil, "")},
		{msgWelcome, appendWelcome(nil, 42)},
		{msgHeartbeat, appendStamp(nil, -5, 1<<40)},
		{msgAck, appendStamp(nil, 0, 17)},
		{msgBatch, batch},
		{msgBatch, batchPayload(f, repl.Batch{Epoch: 3})},
		{msgBye, []byte{byeClosed}},
	}
	stream := frame(f, msgs...)
	f.Add(stream)
	f.Add(stream[:len(stream)-1])        // truncated inside the last message
	f.Add(stream[:repl.FrameHdrBytes-2]) // truncated inside the first header
	f.Add([]byte{})
	for _, m := range msgs {
		f.Add(m.payload)
		f.Add(frame(f, m))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &mconn{br: bufio.NewReader(bytes.NewReader(data))}
		for {
			kind, p, err := c.readMsg()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrBadMessage) {
					t.Fatalf("readMsg: unclassified error %v", err)
				}
				break
			}
			checkPayload(t, kind, p)
		}
		for kind := byte(msgHello); kind <= msgAck; kind++ {
			checkPayload(t, kind, data)
		}
	})
}
