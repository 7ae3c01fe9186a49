package replnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/obs"
	"incll/internal/repl"
)

// ClientConfig parameterizes a follower-side Client. Addr, Bootstrap,
// and Apply are required.
type ClientConfig struct {
	// Addr is the primary's replication address ("host:port").
	Addr string
	// ID identifies this follower to the primary; a reconnect with the
	// same id kicks the stale previous connection. Defaults to a stable
	// per-client identity (hostname plus a random tag) — every session of
	// one Client presents the same id, so the primary's per-peer
	// bookkeeping stays bounded across reconnects and stale-connection
	// kicking works for unnamed followers too.
	ID string

	// Dial overrides how the connection is made (tests inject partitions
	// here). Default: net.DialTimeout("tcp", Addr, DialTimeout).
	Dial        func(addr string, timeout time.Duration) (net.Conn, error)
	DialTimeout time.Duration // default 5s

	// Bootstrap consumes the raw snapshot stream from r (repl.Restore
	// reads exactly to the end frame, no further) and returns the anchor
	// epoch the new follower state is exact at. Called once per
	// (re)connect; every session starts from a fresh snapshot because
	// the primary's change journal cannot replay from an arbitrary past
	// epoch.
	Bootstrap func(r io.Reader) (anchor uint64, err error)

	// Apply applies one batch chunk's entries (already filtered to
	// epochs above the session anchor) and, on final chunks, commits:
	// the follower's durable state advances only at released-batch
	// boundaries. Entries alias the read buffer; Apply must not retain
	// them past its return.
	Apply func(horizon uint64, final bool, entries []repl.Entry) error

	// DeadAfter is how long the connection may go silent (no batch, no
	// heartbeat) before the primary is declared dead and the session is
	// torn down for a reconnect (default 2s). The primary's heartbeat
	// interval must be comfortably below it.
	DeadAfter time.Duration

	// BootstrapTimeout bounds one snapshot restore (default 2 minutes).
	BootstrapTimeout time.Duration

	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 50ms / 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the clock.
	Seed int64

	// Trace receives follower lifecycle events.
	Trace *obs.Tracer
	// Logf, if set, receives session lifecycle log lines.
	Logf func(format string, args ...any)
}

func (c *ClientConfig) setDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2 * time.Second
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 2 * time.Minute
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// Client is the follower side of the replication transport: it dials the
// primary, bootstraps through Bootstrap, applies the live batch stream
// through Apply, and reconnects forever with jittered exponential
// backoff — a lost stream, a dead primary, or a clean primary shutdown
// all lead back to dialing, so a follower left running rejoins a
// restarted or promoted primary at that address on its own.
type Client struct {
	cfg ClientConfig
	rng *rand.Rand // owned by the run goroutine

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	connMu sync.Mutex
	conn   net.Conn // live session conn; closed by Close to unblock I/O

	ready     chan struct{} // closed after the first successful bootstrap
	readyOnce sync.Once

	connected  atomic.Bool
	applied    atomic.Uint64
	released   atomic.Uint64 // primary's released horizon, from heartbeats
	reconnects atomic.Int64
	downSince  atomic.Int64 // unix nanos the primary became unreachable; 0 when up

	errMu   sync.Mutex
	lastErr error
}

// Dial starts a client. It returns immediately; use WaitReady to block
// until the first bootstrap completes.
func Dial(cfg ClientConfig) *Client {
	cfg.setDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	if c.cfg.ID == "" {
		c.cfg.ID = defaultID(c.rng)
	}
	c.downSince.Store(time.Now().UnixNano())
	go c.run()
	return c
}

// defaultID derives a stable identity for a client whose config named
// none: one fixed id per Client, reused by every reconnect. An ephemeral
// per-connection id (the old local-address default) made the primary's
// seen-id registries grow without bound under reconnect churn and never
// matched for stale-connection kicking.
func defaultID(rng *rand.Rand) string {
	host, _ := os.Hostname()
	if host == "" {
		host = "follower"
	}
	if len(host) > 64 {
		host = host[:64]
	}
	return fmt.Sprintf("%s-%08x", host, rng.Uint32())
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Close stops the client: the current session conn is closed to unblock
// any pending I/O and the run loop is joined. Idempotent.
func (c *Client) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.connMu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.connMu.Unlock()
	})
	<-c.done
}

// WaitReady blocks until the first bootstrap has completed (the follower
// is serving at some anchor epoch) or the timeout elapses, returning the
// last session error on timeout.
func (c *Client) WaitReady(timeout time.Duration) error {
	select {
	case <-c.ready:
		return nil
	case <-c.stop:
		return errors.New("replnet: client closed")
	case <-time.After(timeout):
		if err := c.Err(); err != nil {
			return fmt.Errorf("replnet: not ready after %v: %w", timeout, err)
		}
		return fmt.Errorf("replnet: not ready after %v", timeout)
	}
}

// Connected reports whether a live session is currently streaming.
func (c *Client) Connected() bool { return c.connected.Load() }

// PrimaryReleased returns the primary's released horizon as last heard
// (batches and heartbeats both advance it).
func (c *Client) PrimaryReleased() uint64 { return c.released.Load() }

// Reconnects counts session ends (including failed dials): the number of
// times the client has had to back off and retry.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// DownFor reports how long the primary has been unreachable (0 while a
// session is live). Failover policies watch this: a follower past its
// promotion deadline stops following and is promoted.
func (c *Client) DownFor() time.Duration {
	since := c.downSince.Load()
	if since == 0 {
		return 0
	}
	return time.Since(time.Unix(0, since))
}

// Err returns the most recent session error (nil while the first session
// is still being established or after a clean session).
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.lastErr
}

func (c *Client) setErr(err error) {
	c.errMu.Lock()
	c.lastErr = err
	c.errMu.Unlock()
}

// run is the reconnect loop: each session failure backs off with full
// jitter (uniform in [backoff/2, backoff)), doubling up to BackoffMax; a
// session that reached streaming resets the backoff.
func (c *Client) run() {
	defer close(c.done)
	backoff := c.cfg.BackoffMin
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		streamed, err := c.session()
		if err != nil {
			c.setErr(err)
		}
		c.connected.Store(false)
		c.downSince.CompareAndSwap(0, time.Now().UnixNano())
		select {
		case <-c.stop:
			return
		default:
		}
		c.reconnects.Add(1)
		if streamed {
			backoff = c.cfg.BackoffMin
		}
		sleep := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
		c.logf("replnet: session to %s ended (%v); reconnecting in %v", c.cfg.Addr, err, sleep)
		select {
		case <-c.stop:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > c.cfg.BackoffMax {
			backoff = c.cfg.BackoffMax
		}
	}
}

// session runs one full connection lifecycle: dial, handshake, snapshot
// bootstrap, then the live stream until something ends it. streamed
// reports whether the session reached the live-streaming phase.
func (c *Client) session() (streamed bool, err error) {
	nc, err := c.cfg.Dial(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	c.connMu.Lock()
	select {
	case <-c.stop:
		c.connMu.Unlock()
		nc.Close()
		return false, errors.New("replnet: client closed")
	default:
	}
	c.conn = nc
	c.connMu.Unlock()
	defer func() {
		c.connMu.Lock()
		c.conn = nil
		c.connMu.Unlock()
		nc.Close()
	}()

	mc := newMconn(nc)

	// Handshake.
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return false, err
	}
	if err := mc.writeMsg(msgHello, appendHello(nil, c.cfg.ID)); err != nil {
		return false, err
	}
	if err := mc.flush(); err != nil {
		return false, err
	}
	kind, p, err := mc.readMsg()
	if err != nil {
		return false, err
	}
	if kind != msgWelcome {
		return false, fmt.Errorf("%w: expected welcome, got message %d", ErrProtocol, kind)
	}
	released, err := parseWelcome(p)
	if err != nil {
		return false, err
	}
	c.released.Store(released)

	// Bootstrap: the raw snapshot stream, read through the same buffered
	// reader the message parser uses, so the live phase resumes exactly
	// where the snapshot's end frame stopped.
	if err := nc.SetDeadline(time.Now().Add(c.cfg.BootstrapTimeout)); err != nil {
		return false, err
	}
	start := time.Now()
	anchor, err := c.cfg.Bootstrap(mc.br)
	if err != nil {
		return false, fmt.Errorf("replnet: bootstrap: %w", err)
	}
	c.applied.Store(anchor)
	c.connected.Store(true)
	c.downSince.Store(0)
	c.readyOnce.Do(func() { close(c.ready) })
	c.cfg.Trace.Record(obs.EvNetFollowerConnect, -1, anchor, time.Since(start), 0)
	c.logf("replnet: following %s from anchor epoch %d (bootstrap %v)", c.cfg.Addr, anchor, time.Since(start))
	nc.SetDeadline(time.Time{})

	// Live stream.
	var ents []repl.Entry
	for {
		if err := nc.SetReadDeadline(time.Now().Add(c.cfg.DeadAfter)); err != nil {
			return true, err
		}
		kind, p, err := mc.readMsg()
		if err != nil {
			return true, err
		}
		switch kind {
		case msgBatch:
			ck, err := parseBatch(p, ents)
			if err != nil {
				return true, err
			}
			ents = ck.Entries[:0] // recycle the entry scratch
			live := ck.Entries
			if len(live) > 0 && live[0].Epoch <= anchor {
				// Only the first released batch can overlap the snapshot
				// (entries at or below the anchor are baked in).
				kept := live[:0]
				for _, e := range live {
					if e.Epoch > anchor {
						kept = append(kept, e)
					}
				}
				live = kept
			}
			if err := c.cfg.Apply(ck.Horizon, ck.Final, live); err != nil {
				return true, fmt.Errorf("replnet: apply: %w", err)
			}
			if ck.Final {
				c.applied.Store(ck.Horizon)
				if ck.Horizon > c.released.Load() {
					c.released.Store(ck.Horizon)
				}
				if err := c.writeAck(nc, mc, 0); err != nil {
					return true, err
				}
			}
		case msgHeartbeat:
			nonce, rel, err := parseStamp(p)
			if err != nil {
				return true, err
			}
			if rel > c.released.Load() {
				c.released.Store(rel)
			}
			if err := c.writeAck(nc, mc, nonce); err != nil {
				return true, err
			}
		case msgBye:
			if len(p) == 1 && p[0] == byeClosed {
				return true, ErrPrimaryClosed
			}
			return true, ErrStreamLostRemote
		default:
			return true, fmt.Errorf("%w: unexpected message %d from primary", ErrProtocol, kind)
		}
	}
}

func (c *Client) writeAck(nc net.Conn, mc *mconn, nonce int64) error {
	if err := nc.SetWriteDeadline(time.Now().Add(c.cfg.DeadAfter)); err != nil {
		return err
	}
	if err := mc.writeMsg(msgAck, appendStamp(nil, nonce, c.applied.Load())); err != nil {
		return err
	}
	return mc.flush()
}
