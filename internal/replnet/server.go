package replnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/obs"
	"incll/internal/repl"
)

// BatchSource is the primary-side feed one peer streams from: a pinned
// change-stream subscription created by the bootstrap callback
// (*repl.Subscription implements it), unpinned when the peer's first ack
// arrives. Next blocks until the next released batch; the per-peer
// collector goroutine owns it.
type BatchSource interface {
	Next() (repl.Batch, error)
	Released() uint64
	PendingBytes() uint64
	Unpin()
	Close()
}

// Config parameterizes a Server. Bootstrap is the only required field.
type Config struct {
	// Bootstrap writes a complete snapshot stream (internal/repl wire
	// format) to w and returns the live change subscription — created
	// before the snapshot scan begins, so nothing slips between snapshot
	// and stream — plus the snapshot's anchor epoch. Called once per
	// accepted follower, concurrently across followers.
	Bootstrap func(w io.Writer) (BatchSource, uint64, error)

	// Released reports the primary's released epoch high-water mark,
	// carried in heartbeats so an idle follower still learns the horizon.
	Released func() uint64

	// Heartbeat is the idle-channel heartbeat interval (default 250ms).
	// DeadAfter is how long a peer may go without acking anything before
	// it is declared dead and torn down (default 4× Heartbeat).
	Heartbeat time.Duration
	DeadAfter time.Duration

	// QueueLen is the per-peer send-queue depth in batches (default 32).
	// A peer whose queue stays full exerts backpressure on its collector,
	// which lags its subscription until the journal budget cuts it
	// (ErrStreamLost) — the hub, not the transport, is the arbiter of
	// how far behind a follower may fall.
	QueueLen int

	// BootstrapTimeout bounds the snapshot write to one follower
	// (default 2 minutes).
	BootstrapTimeout time.Duration

	// OnPeer, if set, is called the first time each distinct peer id
	// connects (used to register per-peer gauges exactly once).
	OnPeer func(id string)

	// Trace receives peer lifecycle events; RTT, if set, receives
	// heartbeat round-trip samples in nanoseconds.
	Trace *obs.Tracer
	RTT   *obs.Histogram

	// Timeline, if set, receives the per-peer stamps of the epoch
	// propagation trace (enqueue, first/final chunk send, ack — see
	// DESIGN.md §15). All stamps are taken here on the primary, so the
	// derived intervals are single-clock and skew-free.
	Timeline *obs.EpochTimeline

	// Logf, if set, receives peer lifecycle log lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 4 * c.Heartbeat
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 32
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 2 * time.Minute
	}
}

// PeerStatus is a point-in-time view of one connected follower.
type PeerStatus struct {
	ID          string
	Remote      string
	ConnectedAt time.Time
	AnchorEpoch uint64        // snapshot anchor the peer bootstrapped at
	SentEpoch   uint64        // last batch horizon written to the peer
	AckedEpoch  uint64        // last applied epoch the peer acked
	LagEpochs   uint64        // primary released − acked
	LagBytes    uint64        // released change bytes not yet consumed by this peer
	QueueDepth  int           // batches waiting in the peer's send queue
	SentBytes   int64         // wire payload bytes sent (bootstrap + batches)
	RTT         time.Duration // last heartbeat round trip
	LastAck     time.Time
}

// Stats aggregates a server's lifetime counters.
type Stats struct {
	Peers     int   // currently connected
	Accepts   int64 // connections accepted
	Kicked    int64 // stale duplicate peers replaced by a reconnect
	PeerErrs  int64 // peers torn down on error or deadline
	SentBytes int64 // wire payload bytes sent across all peers ever
}

var errPeerDead = errors.New("replnet: peer missed ack deadline")

// errPeerReplaced tears down a stale connection when the same follower id
// dials again (a half-dead NAT'd conn the old reader hasn't noticed yet).
var errPeerReplaced = errors.New("replnet: peer replaced by reconnect")

// Server accepts follower connections on one listener and streams each a
// snapshot bootstrap followed by the released change batches. Every peer
// owns three goroutines — a collector draining its subscription into the
// send queue, a sender multiplexing queue and heartbeats onto the wire,
// and a reader consuming acks — all tied to one stop channel, so a peer
// tears down exactly once no matter which side fails first.
type Server struct {
	cfg Config
	lis net.Listener

	mu      sync.Mutex
	peers   map[string]*peer // live peers by id (duplicate suppression)
	seen    map[string]bool  // ids ever connected (OnPeer fires once each)
	closed  bool
	stopped chan struct{} // closed when the accept loop exits

	peerWG sync.WaitGroup

	accepts   atomic.Int64
	kicked    atomic.Int64
	peerErrs  atomic.Int64
	sentBytes atomic.Int64
}

// Serve starts accepting followers on lis. The listener is owned by the
// server from here on: Close (and StopAccepting) close it.
func Serve(lis net.Listener, cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:     cfg,
		lis:     lis,
		peers:   make(map[string]*peer),
		seen:    make(map[string]bool),
		stopped: make(chan struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer close(s.stopped)
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed (StopAccepting / Close)
		}
		s.accepts.Add(1)
		s.peerWG.Add(1)
		go func() {
			defer s.peerWG.Done()
			s.handshake(nc)
		}()
	}
}

// handshake runs the hello/welcome exchange and the snapshot bootstrap,
// then hands the connection to the peer's streaming goroutines.
func (s *Server) handshake(nc net.Conn) {
	mc := newMconn(nc)
	fail := func(err error) {
		s.peerErrs.Add(1)
		s.logf("replnet: handshake with %s failed: %v", nc.RemoteAddr(), err)
		nc.Close()
	}
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		fail(err)
		return
	}
	kind, p, err := mc.readMsg()
	if err != nil {
		fail(err)
		return
	}
	if kind != msgHello {
		fail(fmt.Errorf("%w: expected hello, got message %d", ErrProtocol, kind))
		return
	}
	id, err := parseHello(p)
	if err != nil {
		fail(err)
		return
	}
	if id == "" {
		id = nc.RemoteAddr().String()
	}

	pe := &peer{
		srv:         s,
		id:          id,
		remote:      nc.RemoteAddr().String(),
		nc:          nc,
		mc:          mc,
		queue:       make(chan repl.Batch, s.cfg.QueueLen),
		srcEnd:      make(chan error, 1),
		stop:        make(chan struct{}),
		readerDone:  make(chan struct{}),
		connectedAt: time.Now(),
	}
	pe.lastAck.Store(pe.connectedAt.UnixNano())
	if !s.register(pe) {
		fail(fmt.Errorf("replnet: server closed"))
		return
	}

	// Welcome, then the snapshot stream, on a bootstrap-sized deadline:
	// a full scan of a large store through one TCP connection takes as
	// long as it takes, but a wedged peer must not pin an exporter.
	err = func() error {
		if err := nc.SetDeadline(time.Now().Add(s.cfg.BootstrapTimeout)); err != nil {
			return err
		}
		if err := mc.writeMsg(msgWelcome, appendWelcome(nil, s.released())); err != nil {
			return err
		}
		src, anchor, err := s.cfg.Bootstrap(mc.bw)
		if err != nil {
			return err
		}
		if !pe.setSrc(src, anchor) {
			return errPeerReplaced
		}
		return mc.flush()
	}()
	if err != nil {
		if src := pe.getSrc(); src != nil {
			src.Close()
		}
		s.unregister(pe)
		fail(err)
		return
	}
	nc.SetDeadline(time.Time{})
	// The follower sends nothing during the bootstrap (its first ack
	// answers the first heartbeat), so the ack deadline starts counting
	// only now — a bootstrap longer than DeadAfter must not read as a
	// dead peer.
	pe.lastAck.Store(time.Now().UnixNano())

	s.cfg.Trace.Record(obs.EvNetPeerUp, -1, pe.anchor, time.Since(pe.connectedAt), int64(len(s.PeersSnapshot())))
	s.logf("replnet: peer %s (%s) bootstrapped at epoch %d", pe.id, pe.remote, pe.anchor)

	s.peerWG.Add(2)
	go func() { defer s.peerWG.Done(); pe.collect() }()
	go func() { defer s.peerWG.Done(); pe.read() }()
	pe.send() // runs on the handshake goroutine; returns at teardown
	s.unregister(pe)
}

func (s *Server) released() uint64 {
	if s.cfg.Released != nil {
		return s.cfg.Released()
	}
	return 0
}

// register installs the peer in the id map, kicking a stale same-id peer.
// Returns false if the server is closed.
func (s *Server) register(pe *peer) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	old := s.peers[pe.id]
	s.peers[pe.id] = pe
	first := !s.seen[pe.id]
	s.seen[pe.id] = true
	s.mu.Unlock()
	if old != nil {
		s.kicked.Add(1)
		s.logf("replnet: peer %s reconnected; kicking stale connection %s", pe.id, old.remote)
		old.kill(errPeerReplaced)
	}
	if first && s.cfg.OnPeer != nil {
		s.cfg.OnPeer(pe.id)
	}
	return true
}

func (s *Server) unregister(pe *peer) {
	s.mu.Lock()
	if s.peers[pe.id] == pe {
		delete(s.peers, pe.id)
	}
	n := len(s.peers)
	s.mu.Unlock()
	s.cfg.Trace.Record(obs.EvNetPeerDown, -1, pe.ackedEpoch.Load(), time.Since(pe.connectedAt), int64(n))
}

// PeersSnapshot returns a point-in-time status of every connected peer.
func (s *Server) PeersSnapshot() []PeerStatus {
	s.mu.Lock()
	peers := make([]*peer, 0, len(s.peers))
	for _, pe := range s.peers {
		peers = append(peers, pe)
	}
	s.mu.Unlock()
	out := make([]PeerStatus, 0, len(peers))
	for _, pe := range peers {
		out = append(out, pe.status())
	}
	return out
}

// PeerStatus returns the status of the peer with the given id, if it is
// currently connected.
func (s *Server) PeerStatus(id string) (PeerStatus, bool) {
	s.mu.Lock()
	pe := s.peers[id]
	s.mu.Unlock()
	if pe == nil {
		return PeerStatus{}, false
	}
	return pe.status(), true
}

// Stats returns the server's aggregate counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.peers)
	s.mu.Unlock()
	return Stats{
		Peers:     n,
		Accepts:   s.accepts.Load(),
		Kicked:    s.kicked.Load(),
		PeerErrs:  s.peerErrs.Load(),
		SentBytes: s.sentBytes.Load(),
	}
}

// StopAccepting closes the listener so no new follower can connect;
// existing peers keep streaming. Idempotent.
func (s *Server) StopAccepting() {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !closed {
		s.lis.Close()
	}
}

// Drain waits up to timeout for every peer to finish on its own — after a
// graceful hub close each peer's subscription ends with ErrStreamClosed,
// its sender flushes the queued (final) batches and a clean bye, and the
// peer exits. Call after releasing the final epoch, before Close, so
// followers receive the complete stream ahead of listener/conn teardown.
func (s *Server) Drain(timeout time.Duration) {
	s.StopAccepting()
	done := make(chan struct{})
	go func() {
		s.peerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
}

// Close tears the server down: no new connections, every peer killed,
// all goroutines joined. Idempotent.
func (s *Server) Close() error {
	s.StopAccepting()
	s.mu.Lock()
	peers := make([]*peer, 0, len(s.peers))
	for _, pe := range s.peers {
		peers = append(peers, pe)
	}
	s.mu.Unlock()
	for _, pe := range peers {
		pe.kill(errors.New("replnet: server closed"))
	}
	<-s.stopped
	s.peerWG.Wait()
	return nil
}

// --- peer ------------------------------------------------------------------

// peer is one connected follower's server-side state.
type peer struct {
	srv    *Server
	id     string
	remote string
	nc     net.Conn
	mc     *mconn

	srcMu  sync.Mutex // src is set mid-handshake, read by a concurrent kick
	src    BatchSource
	anchor uint64

	queue  chan repl.Batch // collector → sender
	srcEnd chan error      // collector's terminal subscription error

	stop       chan struct{}
	stopOnce   sync.Once
	closing    atomic.Bool   // set before the goodbye linger; mutes reader errors
	readerDone chan struct{} // closed when the read goroutine exits

	connectedAt time.Time
	sentEpoch   atomic.Uint64
	ackedEpoch  atomic.Uint64
	sentBytes   atomic.Int64
	lastAck     atomic.Int64 // unix nanos of the last ack received
	rttNanos    atomic.Int64
}

// setSrc publishes the bootstrap's subscription. If a concurrent kick
// already tore the peer down, the subscription is closed immediately
// (Subscription.Close is idempotent, so the kill path racing here is
// harmless) and false is returned.
func (pe *peer) setSrc(src BatchSource, anchor uint64) bool {
	pe.srcMu.Lock()
	pe.src = src
	pe.anchor = anchor
	pe.srcMu.Unlock()
	select {
	case <-pe.stop:
		src.Close()
		return false
	default:
		return true
	}
}

func (pe *peer) getSrc() BatchSource {
	pe.srcMu.Lock()
	defer pe.srcMu.Unlock()
	return pe.src
}

// kill tears the peer down exactly once: the stop channel releases the
// sender and collector, and closing the conn releases any blocked I/O.
func (pe *peer) kill(err error) {
	pe.stopOnce.Do(func() {
		if err != nil && !errors.Is(err, errPeerReplaced) {
			pe.srv.peerErrs.Add(1)
		}
		if err != nil {
			pe.srv.logf("replnet: peer %s (%s) down: %v", pe.id, pe.remote, err)
		}
		close(pe.stop)
		pe.nc.Close()
		if src := pe.getSrc(); src != nil {
			src.Close()
		}
	})
}

// collect drains the subscription into the send queue. When the stream
// ends (clean close or lost), the terminal error goes to srcEnd — by
// then every released batch is already in the queue, because Next drains
// the stream before reporting its end.
func (pe *peer) collect() {
	for {
		b, err := pe.src.Next()
		if err != nil {
			pe.srcEnd <- err
			return
		}
		// The enqueue stamp is taken before the (possibly blocking) queue
		// push, so queue_wait includes backpressure from a full queue.
		pe.srv.cfg.Timeline.PeerEnqueue(pe.id, b.Epoch)
		select {
		case pe.queue <- b:
		case <-pe.stop:
			return
		}
	}
}

// send multiplexes the send queue and the heartbeat ticker onto the wire
// and enforces the ack deadline. Runs until teardown. The first heartbeat
// goes out immediately: the follower learns the released horizon right
// after its bootstrap and its ack lands well before the first deadline
// check.
func (pe *peer) send() {
	if err := pe.writeHeartbeat(); err != nil {
		pe.kill(err)
		return
	}
	tick := time.NewTicker(pe.srv.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-pe.stop:
			return
		case b := <-pe.queue:
			if err := pe.writeBatch(b); err != nil {
				pe.kill(err)
				return
			}
		case err := <-pe.srcEnd:
			pe.closing.Store(true)
			pe.drainAndBye(err)
			pe.lingerClose()
			return
		case <-tick.C:
			if time.Since(time.Unix(0, pe.lastAck.Load())) > pe.srv.cfg.DeadAfter {
				pe.kill(errPeerDead)
				return
			}
			if err := pe.writeHeartbeat(); err != nil {
				pe.kill(err)
				return
			}
		}
	}
}

func (pe *peer) writeBatch(b repl.Batch) error {
	// The write deadline is extended per chunk inside mconn.writeBatch: a
	// large batch on a slow link is alive as long as every chunk lands
	// within DeadAfter, however long the whole batch takes. The final
	// flush rides on the last chunk's deadline.
	pe.srv.cfg.Timeline.PeerFirstSend(pe.id, b.Epoch)
	n, err := pe.mc.writeBatch(b, pe.srv.cfg.DeadAfter)
	pe.sentBytes.Add(n)
	pe.srv.sentBytes.Add(n)
	if err != nil {
		return err
	}
	pe.sentEpoch.Store(b.Epoch)
	if err := pe.mc.flush(); err != nil {
		return err
	}
	// Final-send is stamped after the flush: the wire stage ends when the
	// last chunk left this process, and the ack stamp (taken by the read
	// goroutine, possibly racing) only fires for epochs whose final-send
	// stamp exists — a raced ack is swept up by the next heartbeat ack.
	pe.srv.cfg.Timeline.PeerFinalSend(pe.id, b.Epoch)
	return nil
}

func (pe *peer) writeHeartbeat() error {
	if err := pe.nc.SetWriteDeadline(time.Now().Add(pe.srv.cfg.DeadAfter)); err != nil {
		return err
	}
	hb := appendStamp(nil, time.Now().UnixNano(), pe.srcReleased())
	if err := pe.mc.writeMsg(msgHeartbeat, hb); err != nil {
		return err
	}
	return pe.mc.flush()
}

// srcReleased prefers the subscription's released mark (exact for this
// peer's stream) and falls back to the server-wide callback.
func (pe *peer) srcReleased() uint64 {
	if src := pe.getSrc(); src != nil {
		return src.Released()
	}
	return pe.srv.released()
}

// drainAndBye flushes whatever the collector queued before the stream
// ended — on a clean close that includes the final epoch — then says
// goodbye with the stream's fate so the follower knows whether to wait
// or re-bootstrap.
func (pe *peer) drainAndBye(srcErr error) {
	for {
		select {
		case b := <-pe.queue:
			if err := pe.writeBatch(b); err != nil {
				return
			}
		default:
			reason := byte(byeLost)
			if errors.Is(srcErr, repl.ErrStreamClosed) {
				reason = byeClosed
			}
			pe.nc.SetWriteDeadline(time.Now().Add(pe.srv.cfg.DeadAfter))
			if err := pe.mc.writeMsg(msgBye, []byte{reason}); err == nil {
				pe.mc.flush()
			}
			return
		}
	}
}

// lingerClose ends a goodbye'd session without a TCP reset: a bare
// Close with unread acks in the receive buffer would RST the connection
// and destroy the final batch + bye still in flight to the follower.
// Instead, half-close the write side (FIN after the bye) and wait for
// the reader to see the follower's EOF — the follower reads the
// complete stream, closes, and only then does the full close run.
func (pe *peer) lingerClose() {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := pe.nc.(closeWriter); ok {
		cw.CloseWrite()
	}
	linger := pe.srv.cfg.DeadAfter
	if linger < 2*time.Second {
		linger = 2 * time.Second
	}
	select {
	case <-pe.readerDone:
	case <-time.After(linger):
	case <-pe.stop:
	}
	pe.kill(nil)
}

// read consumes acks, updating liveness, applied-epoch, and RTT state.
func (pe *peer) read() {
	defer close(pe.readerDone)
	for first := true; ; first = false {
		kind, p, err := pe.mc.readMsg()
		if err != nil {
			if pe.closing.Load() {
				return // goodbye linger: EOF (or any error) is the expected end
			}
			select {
			case <-pe.stop: // teardown already under way; expected error
			default:
				pe.kill(err)
			}
			return
		}
		if kind != msgAck {
			pe.kill(fmt.Errorf("%w: unexpected message %d from follower", ErrProtocol, kind))
			return
		}
		nonce, applied, err := parseStamp(p)
		if err != nil {
			pe.kill(err)
			return
		}
		if first {
			// The follower acks only once its snapshot restore is done: the
			// bootstrap window is over, and from here on the peer is an
			// active consumer, subject to the normal journal budget.
			pe.src.Unpin()
		}
		pe.lastAck.Store(time.Now().UnixNano())
		pe.ackedEpoch.Store(applied)
		pe.srv.cfg.Timeline.PeerAck(pe.id, applied)
		if nonce != 0 {
			rtt := time.Now().UnixNano() - nonce
			if rtt >= 0 {
				pe.rttNanos.Store(rtt)
				if h := pe.srv.cfg.RTT; h != nil {
					h.Record(rtt)
				}
			}
		}
	}
}

func (pe *peer) status() PeerStatus {
	pe.srcMu.Lock()
	src, anchor := pe.src, pe.anchor
	pe.srcMu.Unlock()
	st := PeerStatus{
		ID:          pe.id,
		Remote:      pe.remote,
		ConnectedAt: pe.connectedAt,
		AnchorEpoch: anchor,
		SentEpoch:   pe.sentEpoch.Load(),
		AckedEpoch:  pe.ackedEpoch.Load(),
		QueueDepth:  len(pe.queue),
		SentBytes:   pe.sentBytes.Load(),
		RTT:         time.Duration(pe.rttNanos.Load()),
		LastAck:     time.Unix(0, pe.lastAck.Load()),
	}
	if src != nil {
		st.LagBytes = src.PendingBytes()
		if rel := src.Released(); rel > st.AckedEpoch {
			st.LagEpochs = rel - st.AckedEpoch
		}
	}
	return st
}
