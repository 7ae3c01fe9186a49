package replnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/obs"
	"incll/internal/repl"
)

// fakeSource is a channel-backed BatchSource: the test side pushes
// batches, the peer collector drains them, and Close unblocks Next like
// a real subscription's does.
type fakeSource struct {
	ch       chan repl.Batch
	endErr   error
	released atomic.Uint64
	done     chan struct{}
	once     sync.Once
}

func newFakeSource() *fakeSource {
	return &fakeSource{ch: make(chan repl.Batch, 64), endErr: repl.ErrStreamClosed, done: make(chan struct{})}
}

func (f *fakeSource) push(b repl.Batch) {
	if b.Epoch > f.released.Load() {
		f.released.Store(b.Epoch)
	}
	f.ch <- b
}

func (f *fakeSource) end(err error) {
	f.endErr = err
	close(f.ch)
}

func (f *fakeSource) Next() (repl.Batch, error) {
	select {
	case b, ok := <-f.ch:
		if !ok {
			return repl.Batch{}, f.endErr
		}
		return b, nil
	case <-f.done:
		return repl.Batch{}, repl.ErrStreamClosed
	}
}

func (f *fakeSource) Released() uint64     { return f.released.Load() }
func (f *fakeSource) PendingBytes() uint64 { return uint64(len(f.ch)) }
func (f *fakeSource) Unpin()               {}
func (f *fakeSource) Close()               { f.once.Do(func() { close(f.done) }) }

// testBlob is the stand-in snapshot stream for transport-level tests:
// the handoff property under test is only that the bootstrap reader
// consumes exactly its bytes and the live phase resumes after them.
var testBlob = []byte("snapshot-bootstrap-stand-in!")

func testServer(t *testing.T, src func() BatchSource, anchor uint64, cfg Config) *Server {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Bootstrap = func(w io.Writer) (BatchSource, uint64, error) {
		if _, err := w.Write(testBlob); err != nil {
			return nil, 0, err
		}
		return src(), anchor, nil
	}
	s := Serve(lis, cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func blobBootstrap(anchor uint64) func(io.Reader) (uint64, error) {
	return func(r io.Reader) (uint64, error) {
		got := make([]byte, len(testBlob))
		if _, err := io.ReadFull(r, got); err != nil {
			return 0, err
		}
		if !bytes.Equal(got, testBlob) {
			return 0, errors.New("bootstrap blob mismatch")
		}
		return anchor, nil
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func entry(epoch uint64, shard int, op core.ChangeOp, k, v string) repl.Entry {
	return repl.Entry{Op: op, Epoch: epoch, Shard: shard, Key: []byte(k), Val: []byte(v)}
}

func TestBatchWireRoundtrip(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 100<<10) // forces multi-chunk splits
	b := repl.Batch{
		Epoch: 42,
		Entries: []repl.Entry{
			entry(40, 0, core.ChangePut, "a", "1"),
			entry(41, 3, core.ChangePut, "big0", string(big)),
			entry(41, 1, core.ChangeDelete, "gone", ""),
			entry(42, 2, core.ChangePut, "big1", string(big)),
			entry(42, 0, core.ChangePut, "big2", string(big)),
			entry(42, 5, core.ChangePut, "z", "tail"),
		},
	}
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	mcw := newMconn(srv)
	done := make(chan error, 1)
	go func() {
		if _, err := mcw.writeBatch(b, 0); err != nil {
			done <- err
			return
		}
		done <- mcw.flush()
	}()
	mcr := newMconn(cli)
	var got []repl.Entry
	chunks := 0
	for {
		kind, p, err := mcr.readMsg()
		if err != nil {
			t.Fatal(err)
		}
		if kind != msgBatch {
			t.Fatalf("kind = %d, want batch", kind)
		}
		ck, err := parseBatch(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Horizon != 42 {
			t.Fatalf("horizon = %d, want 42", ck.Horizon)
		}
		chunks++
		for _, e := range ck.Entries {
			got = append(got, repl.Entry{Op: e.Op, Epoch: e.Epoch, Shard: e.Shard,
				Key: append([]byte(nil), e.Key...), Val: append([]byte(nil), e.Val...)})
		}
		if ck.Final {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Fatalf("chunks = %d, want a multi-chunk split", chunks)
	}
	if len(got) != len(b.Entries) {
		t.Fatalf("entries = %d, want %d", len(got), len(b.Entries))
	}
	for i := range got {
		w := b.Entries[i]
		if got[i].Op != w.Op || got[i].Epoch != w.Epoch || got[i].Shard != w.Shard ||
			!bytes.Equal(got[i].Key, w.Key) || !bytes.Equal(got[i].Val, w.Val) {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], w)
		}
	}
}

// TestMessageMalformed pins replnet's side of the shared frame codec's
// error contract: every malformed message is a wrapped ErrBadMessage, and
// a stream that ends exactly at a message boundary is a bare io.EOF.
func TestMessageMalformed(t *testing.T) {
	// A valid heartbeat message to mutate.
	valid := frame(t, msg{msgHeartbeat, appendStamp(nil, 7, 9)})

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad crc", func(b []byte) []byte { b[9] ^= 0xFF; return b }},
		{"flipped payload", func(b []byte) []byte { b[repl.FrameHdrBytes] ^= 0xFF; return b }},
		{"truncated payload", func(b []byte) []byte { return b[:repl.FrameHdrBytes+4] }},
		{"huge length", func(b []byte) []byte {
			b[5], b[6], b[7], b[8] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		}},
		{"oversize length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:], repl.MaxFramePayload+1)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mutate(append([]byte(nil), valid...))
			mc := &mconn{br: bufio.NewReader(bytes.NewReader(in))}
			if _, _, err := mc.readMsg(); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("err = %v, want ErrBadMessage", err)
			}
		})
	}
	t.Run("eof at message boundary", func(t *testing.T) {
		mc := &mconn{br: bufio.NewReader(bytes.NewReader(valid))}
		if kind, _, err := mc.readMsg(); err != nil || kind != msgHeartbeat {
			t.Fatalf("valid message: kind %d, err %v", kind, err)
		}
		if _, _, err := mc.readMsg(); err != io.EOF {
			t.Fatalf("err = %v, want bare io.EOF", err)
		}
	})
}

// TestWireGoldenMessage pins the message wire bytes (protocol version 1),
// so peers of other builds stay compatible: the writer must reproduce
// this batch message byte for byte and the reader decode it back, so a
// reordered or resized header, or a changed entry encoding, fails here.
func TestWireGoldenMessage(t *testing.T) {
	golden, err := hex.DecodeString("49524e500323000000da2289b3090000000000000001020000000100000503616c7068616f6e65020203040062657461")
	if err != nil {
		t.Fatal(err)
	}
	b := repl.Batch{Epoch: 9, Entries: []repl.Entry{
		{Op: core.ChangePut, Epoch: 9, Shard: 0, Key: []byte("alpha"), Val: []byte("one")},
		{Op: core.ChangeDelete, Epoch: 7, Shard: 3, Key: []byte("beta")},
	}}
	var buf bytes.Buffer
	c := &mconn{bw: bufio.NewWriter(&buf)}
	if _, err := c.writeBatch(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("writer produced\n%x\nwant\n%x", buf.Bytes(), golden)
	}
	r := &mconn{br: bufio.NewReader(bytes.NewReader(golden))}
	kind, p, err := r.readMsg()
	if err != nil || kind != msgBatch {
		t.Fatalf("golden message: kind %d, err %v", kind, err)
	}
	ck, err := parseBatch(p, nil)
	if err != nil || ck.Horizon != 9 || !ck.Final || len(ck.Entries) != 2 {
		t.Fatalf("golden batch decodes to %+v, %v", ck, err)
	}
	for i, w := range b.Entries {
		g := ck.Entries[i]
		if g.Op != w.Op || g.Epoch != w.Epoch || g.Shard != w.Shard || !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Val, w.Val) {
			t.Fatalf("entry %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestServerClientStream(t *testing.T) {
	src := newFakeSource()
	rtt := &obs.Histogram{}
	s := testServer(t, func() BatchSource { return src }, 5, Config{
		Heartbeat: 10 * time.Millisecond,
		RTT:       rtt,
	})

	var mu sync.Mutex
	applied := map[string]string{}
	var watermark uint64
	c := Dial(ClientConfig{
		Addr:      s.Addr().String(),
		ID:        "f1",
		Bootstrap: blobBootstrap(5),
		Apply: func(horizon uint64, final bool, ents []repl.Entry) error {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range ents {
				if e.Epoch <= 5 {
					return fmt.Errorf("entry at epoch %d leaked below the anchor", e.Epoch)
				}
				if e.Op == core.ChangeDelete {
					delete(applied, string(e.Key))
				} else {
					applied[string(e.Key)] = string(e.Val)
				}
			}
			if final {
				watermark = horizon
			}
			return nil
		},
		DeadAfter: 500 * time.Millisecond,
		Seed:      1,
	})
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.AppliedEpoch(); got != 5 {
		t.Fatalf("anchor applied = %d, want 5", got)
	}

	// A batch that overlaps the anchor: epochs ≤ 5 must be filtered out.
	src.push(repl.Batch{Epoch: 6, Entries: []repl.Entry{
		entry(5, 0, core.ChangePut, "stale", "snapshot-owned"),
		entry(6, 0, core.ChangePut, "k1", "v1"),
	}})
	src.push(repl.Batch{Epoch: 7, Entries: []repl.Entry{
		entry(7, 1, core.ChangePut, "k2", "v2"),
		entry(7, 0, core.ChangeDelete, "k1", ""),
	}})
	waitFor(t, "batches applied", func() bool { return c.AppliedEpoch() == 7 })
	mu.Lock()
	if watermark != 7 || applied["k2"] != "v2" {
		mu.Unlock()
		t.Fatalf("watermark = %d applied = %v", watermark, applied)
	}
	if _, ok := applied["k1"]; ok {
		mu.Unlock()
		t.Fatal("delete not applied")
	}
	if _, ok := applied["stale"]; ok {
		mu.Unlock()
		t.Fatal("entry below the anchor applied")
	}
	mu.Unlock()

	// Acks propagate the applied epoch back into the peer's status, and
	// heartbeats measure RTT.
	waitFor(t, "peer ack", func() bool {
		st, ok := s.PeerStatus("f1")
		return ok && st.AckedEpoch == 7
	})
	waitFor(t, "rtt sample", func() bool { return rtt.Count() > 0 })
	if c.LagEpochs() != 0 {
		t.Fatalf("lag = %d, want 0", c.LagEpochs())
	}
}

func TestCleanCloseDrainsFinalEpoch(t *testing.T) {
	src := newFakeSource()
	s := testServer(t, func() BatchSource { return src }, 1, Config{Heartbeat: 10 * time.Millisecond})

	var gotBye atomic.Bool
	var final atomic.Uint64
	c := Dial(ClientConfig{
		Addr:      s.Addr().String(),
		ID:        "f1",
		Bootstrap: blobBootstrap(1),
		Apply: func(horizon uint64, fin bool, ents []repl.Entry) error {
			if fin {
				final.Store(horizon)
			}
			return nil
		},
		DeadAfter: 500 * time.Millisecond,
		Seed:      1,
	})
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Queue the final epoch and close the stream before the client has
	// acked: the sender must drain the queue, then say a clean goodbye.
	src.push(repl.Batch{Epoch: 2, Entries: []repl.Entry{entry(2, 0, core.ChangePut, "last", "one")}})
	src.end(repl.ErrStreamClosed)
	s.Drain(5 * time.Second)
	// Drain returns once the server side has flushed; the client applies
	// asynchronously, so wait for the final epoch to land.
	waitFor(t, "final epoch applied", func() bool { return final.Load() == 2 })
	waitFor(t, "clean bye", func() bool {
		gotBye.Store(errors.Is(c.Err(), ErrPrimaryClosed))
		return gotBye.Load()
	})
}

func TestReconnectAndDuplicateKick(t *testing.T) {
	var srcs []*fakeSource
	var smu sync.Mutex
	s := testServer(t, func() BatchSource {
		smu.Lock()
		defer smu.Unlock()
		src := newFakeSource()
		srcs = append(srcs, src)
		return src
	}, 3, Config{Heartbeat: 10 * time.Millisecond, DeadAfter: 100 * time.Millisecond})

	c := Dial(ClientConfig{
		Addr:       s.Addr().String(),
		ID:         "f1",
		Bootstrap:  blobBootstrap(3),
		Apply:      func(uint64, bool, []repl.Entry) error { return nil },
		DeadAfter:  200 * time.Millisecond,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Seed:       1,
	})
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Lose the stream server-side: the peer says bye(lost) and the
	// client must come back with a fresh bootstrap on its own.
	smu.Lock()
	srcs[0].end(repl.ErrStreamLost)
	smu.Unlock()
	waitFor(t, "reconnect bootstrap", func() bool {
		smu.Lock()
		defer smu.Unlock()
		return len(srcs) >= 2 && c.Connected()
	})
	if c.Reconnects() == 0 {
		t.Fatal("reconnects = 0 after a lost stream")
	}

	// A second client with the same id kicks the first connection.
	c2 := Dial(ClientConfig{
		Addr:      s.Addr().String(),
		ID:        "f1",
		Bootstrap: blobBootstrap(3),
		Apply:     func(uint64, bool, []repl.Entry) error { return nil },
		DeadAfter: 200 * time.Millisecond,
		Seed:      2,
	})
	defer c2.Close()
	if err := c2.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicate kick", func() bool { return s.Stats().Kicked >= 1 })
}

// TestSlowBootstrapSurvivesAckDeadline is the regression for the
// bootstrap/deadline interaction: the follower sends no ack until the
// first post-bootstrap heartbeat, so a bootstrap longer than DeadAfter
// must not read as a dead peer — the old behavior killed the peer right
// after a successful bootstrap and the follower re-bootstrapped forever.
func TestSlowBootstrapSurvivesAckDeadline(t *testing.T) {
	src := newFakeSource()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var boots atomic.Int64
	s := Serve(lis, Config{
		Heartbeat: 10 * time.Millisecond,
		DeadAfter: 50 * time.Millisecond,
		Bootstrap: func(w io.Writer) (BatchSource, uint64, error) {
			boots.Add(1)
			time.Sleep(250 * time.Millisecond) // a snapshot scan ≫ DeadAfter
			if _, err := w.Write(testBlob); err != nil {
				return nil, 0, err
			}
			return src, 1, nil
		},
	})
	t.Cleanup(func() { s.Close() })

	c := Dial(ClientConfig{
		Addr:      s.Addr().String(),
		ID:        "slow",
		Bootstrap: blobBootstrap(1),
		Apply:     func(uint64, bool, []repl.Entry) error { return nil },
		DeadAfter: time.Second,
		Seed:      1,
	})
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Stay connected through several DeadAfter windows: the ack clock must
	// have restarted after the bootstrap.
	time.Sleep(250 * time.Millisecond)
	if !c.Connected() {
		t.Fatalf("follower disconnected after slow bootstrap: %v", c.Err())
	}
	if n := boots.Load(); n != 1 {
		t.Fatalf("bootstraps = %d, want 1 (re-bootstrap loop)", n)
	}
	if st := s.Stats(); st.Peers != 1 || st.PeerErrs != 0 {
		t.Fatalf("peers = %d peerErrs = %d, want 1 live peer and no errors", st.Peers, st.PeerErrs)
	}
}

// TestWriteBatchExtendsDeadlinePerChunk pins the liveness contract of a
// multi-chunk batch write: the deadline covers each chunk, not the whole
// batch, so a transfer slower than one deadline still succeeds as long
// as every chunk makes progress.
func TestWriteBatchExtendsDeadlinePerChunk(t *testing.T) {
	const chunkDeadline = 300 * time.Millisecond
	big := bytes.Repeat([]byte("v"), 100<<10)
	b := repl.Batch{Epoch: 9}
	for i := 0; i < 12; i++ { // ~1.2MB → several chunks, ~19 64KB slabs
		b.Entries = append(b.Entries, entry(9, 0, core.ChangePut, fmt.Sprintf("k%02d", i), string(big)))
	}

	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	go func() { // drain slowly: the whole batch takes ≫ one deadline
		buf := make([]byte, 64<<10)
		for {
			time.Sleep(30 * time.Millisecond)
			if _, err := io.ReadFull(cli, buf); err != nil {
				return
			}
		}
	}()

	mc := newMconn(srv)
	start := time.Now()
	if _, err := mc.writeBatch(b, chunkDeadline); err != nil {
		t.Fatalf("writeBatch: %v", err)
	}
	if err := mc.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if took := time.Since(start); took < chunkDeadline {
		t.Fatalf("batch transferred in %v; too fast to exercise deadline renewal (< %v)", took, chunkDeadline)
	}
}

// TestDefaultIDStableAcrossReconnects checks an unnamed client presents
// one identity for its whole lifetime: an id derived per connection (the
// old local-address default) made the primary's seen-id registries grow
// without bound and defeated same-id stale-connection kicking.
func TestDefaultIDStableAcrossReconnects(t *testing.T) {
	var srcs []*fakeSource
	var smu sync.Mutex
	s := testServer(t, func() BatchSource {
		smu.Lock()
		defer smu.Unlock()
		src := newFakeSource()
		srcs = append(srcs, src)
		return src
	}, 1, Config{Heartbeat: 10 * time.Millisecond})

	c := Dial(ClientConfig{
		Addr:       s.Addr().String(), // ID deliberately empty
		Bootstrap:  blobBootstrap(1),
		Apply:      func(uint64, bool, []repl.Entry) error { return nil },
		DeadAfter:  500 * time.Millisecond,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Seed:       1,
	})
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	peerID := func() string {
		ps := s.PeersSnapshot()
		if len(ps) != 1 {
			return ""
		}
		return ps[0].ID
	}
	var id1 string
	waitFor(t, "first session registered", func() bool { id1 = peerID(); return id1 != "" })

	// Lose the stream; the client reconnects as a fresh session.
	smu.Lock()
	srcs[0].end(repl.ErrStreamLost)
	smu.Unlock()
	waitFor(t, "reconnect bootstrap", func() bool {
		smu.Lock()
		defer smu.Unlock()
		return len(srcs) >= 2 && c.Connected()
	})
	var id2 string
	waitFor(t, "second session registered", func() bool { id2 = peerID(); return id2 != "" })
	if id1 != id2 {
		t.Fatalf("default id changed across reconnects: %q then %q", id1, id2)
	}
}

func TestPeerDeadlineTeardown(t *testing.T) {
	src := newFakeSource()
	s := testServer(t, func() BatchSource { return src }, 1, Config{
		Heartbeat: 10 * time.Millisecond,
		DeadAfter: 60 * time.Millisecond,
	})

	// A raw conn that handshakes and bootstraps but never acks: the
	// server must declare it dead within the deadline and tear it down.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	mc := newMconn(nc)
	if err := mc.writeMsg(msgHello, appendHello(nil, "mute")); err != nil {
		t.Fatal(err)
	}
	if err := mc.flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mc.readMsg(); err != nil { // welcome
		t.Fatal(err)
	}
	if _, err := io.ReadFull(mc.br, make([]byte, len(testBlob))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "peer registered", func() bool { return s.Stats().Peers == 1 })
	waitFor(t, "dead peer torn down", func() bool { return s.Stats().Peers == 0 })
}
