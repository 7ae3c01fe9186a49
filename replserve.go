package incll

// Networked replication: the DB-level façade over internal/replnet.
//
//   - DB.ServeReplication turns a live DB into a replication primary: a
//     TCP listener streaming each accepted follower a snapshot bootstrap
//     and then the released change batches, with heartbeats and per-peer
//     lag bookkeeping.
//   - FollowPrimary runs a networked follower: it dials the primary,
//     restores the snapshot into a fresh local DB, applies the live
//     stream (checkpointing at released-batch boundaries — the same
//     applier DB.Reshard runs), and reconnects with jittered
//     exponential backoff — every reconnect is a full re-bootstrap,
//     because the primary's change journal cannot replay from an
//     arbitrary past epoch.
//   - Follower reads are gated by the epoch watermark: a read that
//     demands epoch E is served only when the follower's applied
//     watermark has reached E; otherwise it fails with a typed LagError
//     so the client can retry (read-your-writes: capture the commit
//     epoch with DB.CurrentEpoch after a write, then pass it as the
//     read's minimum epoch on any follower).
//   - Failover: a follower whose primary stays silent past the
//     heartbeat deadline reports Down; the operator (or kvserver's
//     -promote flow) calls Promote, getting a standalone DB that can
//     itself ServeReplication, and the old primary rejoins as a
//     follower of the new one — a full resync, byte-identical on
//     convergence.
//
// See DESIGN.md §14 for the wire handshake, the heartbeat/failover
// state machine, and the watermark read rule.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"incll/internal/obs"
	"incll/internal/repl"
	"incll/internal/replnet"
)

// ErrReplicaLagging is the sentinel a watermark-gated follower read
// fails with when the follower has not yet applied the requested epoch;
// match with errors.Is and retry after the lag clears (the concrete
// error is a *LagError carrying the epochs).
var ErrReplicaLagging = errors.New("incll: follower watermark below requested epoch")

// LagError reports a follower read rejected by the watermark rule: the
// read demanded epoch Need but the follower has only applied Have.
type LagError struct {
	Need, Have uint64
}

func (e *LagError) Error() string {
	return fmt.Sprintf("incll: follower watermark below requested epoch (need %d, have %d)", e.Need, e.Have)
}

// Is makes errors.Is(err, ErrReplicaLagging) match.
func (e *LagError) Is(target error) bool { return target == ErrReplicaLagging }

// CurrentEpoch returns the currently running (not yet committed) epoch.
// Read it after a write completes for a conservative commit epoch E: the
// write belongs to an epoch ≤ E, so any follower whose applied watermark
// has reached E is guaranteed to serve that write (read-your-writes).
func (db *DB) CurrentEpoch() uint64 { return db.currentEpoch() }

// ReleasedEpoch returns the last globally committed epoch released to
// the change stream — the horizon a fully caught-up follower has
// applied. Activates the change journal on first use, like DB.Changes.
func (db *DB) ReleasedEpoch() uint64 { return db.hub().Released() }

// --- primary side ----------------------------------------------------------

// ReplServerOptions tunes DB.ServeReplication; the zero value is ready
// to use.
type ReplServerOptions struct {
	// Heartbeat is the idle-channel heartbeat interval (default 250ms);
	// DeadAfter is how long a follower may go without acking before it
	// is declared dead and disconnected (default 4× Heartbeat).
	Heartbeat time.Duration
	DeadAfter time.Duration
	// QueueLen is the per-peer send-queue depth in batches (default 32).
	QueueLen int
	// Logf, if set, receives peer lifecycle log lines.
	Logf func(format string, args ...any)
}

// PeerStatus is a point-in-time view of one connected follower.
type PeerStatus = replnet.PeerStatus

// ReplServer serves this DB's replication stream to networked followers.
type ReplServer struct {
	db  *DB
	srv *replnet.Server
}

// ServeReplication starts serving this DB as a replication primary on
// lis (which the server owns from here on). Each accepted follower gets
// a consistent snapshot bootstrap — a pinned change subscription taken
// before the scan, so nothing slips between snapshot and stream — and
// then the released change batches as checkpoints commit. Followers that
// lag past the journal budget are cut (they re-bootstrap); followers
// that go silent past DeadAfter are disconnected. DB.Close stops
// accepting first, releases the final epoch, and only then tears down
// the peer connections, so a clean shutdown delivers the complete
// stream to every live follower.
func (db *DB) ServeReplication(lis net.Listener, o ReplServerOptions) (*ReplServer, error) {
	if db.closed.Load() {
		return nil, errors.New("incll: ServeReplication on a closed DB")
	}
	rs := &ReplServer{db: db}
	cfg := replnet.Config{
		Bootstrap: func(w io.Writer) (replnet.BatchSource, uint64, error) { return exportPinned(db, w) },
		Released:  func() uint64 { return db.hub().Released() },
		Heartbeat: o.Heartbeat,
		DeadAfter: o.DeadAfter,
		QueueLen:  o.QueueLen,
		OnPeer:    db.tel.addPeer,
		Trace:     db.tel.trace,
		RTT:       db.tel.rtt,
		Timeline:  db.tel.prop,
		Logf:      o.Logf,
	}
	rs.srv = replnet.Serve(lis, cfg)

	db.netMu.Lock()
	db.netSrvs = append(db.netSrvs, rs)
	db.netMu.Unlock()
	db.tel.served.Store(true)
	return rs, nil
}

// Addr returns the replication listener's address.
func (rs *ReplServer) Addr() net.Addr { return rs.srv.Addr() }

// Peers returns a point-in-time status of every connected follower.
func (rs *ReplServer) Peers() []PeerStatus { return rs.srv.PeersSnapshot() }

// Stats returns the server's aggregate counters.
func (rs *ReplServer) Stats() replnet.Stats { return rs.srv.Stats() }

// HeartbeatRTT returns the q-quantile of observed heartbeat round trips
// across this node's replication peers.
func (rs *ReplServer) HeartbeatRTT(q float64) time.Duration {
	return time.Duration(rs.db.tel.rtt.Quantile(q))
}

// Close stops the replication server: no new followers, every peer
// disconnected. The DB itself stays open. Idempotent.
func (rs *ReplServer) Close() {
	rs.srv.Close()
	db := rs.db
	db.netMu.Lock()
	for i, s := range db.netSrvs {
		if s == rs {
			db.netSrvs = append(db.netSrvs[:i], db.netSrvs[i+1:]...)
			break
		}
	}
	db.netMu.Unlock()
}

// server returns the newest replication server still streaming this DB,
// or nil: what the incll_replnet_* series, ClusterStatus and the lag
// watchdog read.
func (db *DB) server() *replnet.Server {
	db.netMu.Lock()
	defer db.netMu.Unlock()
	if n := len(db.netSrvs); n > 0 {
		return db.netSrvs[n-1].srv
	}
	return nil
}

// propagating reports whether the node's propagation timeline is in use:
// the node has served replication, or db has the change journal attached.
func (db *DB) propagating() bool {
	return db.tel.served.Load() || db.hubIfAttached() != nil
}

// replServers snapshots the attached replication servers.
func (db *DB) replServers() []*ReplServer {
	db.netMu.Lock()
	defer db.netMu.Unlock()
	return append([]*ReplServer(nil), db.netSrvs...)
}

// registerServer registers the primary-side incll_replnet_* series, read
// off srv (zeros while nothing serves) and the node's histograms.
func (t *telemetry) registerServer(reg *obs.Registry, srv *replnet.Server) {
	stat := func(read func(replnet.Stats) int64) func() int64 {
		return func() int64 {
			if srv == nil {
				return 0
			}
			return read(srv.Stats())
		}
	}
	maxPeer := func(read func(PeerStatus) int64) func() int64 {
		return func() (top int64) {
			if srv == nil {
				return 0
			}
			for _, p := range srv.PeersSnapshot() {
				top = max(top, read(p))
			}
			return top
		}
	}
	reg.Gauge("incll_replnet_peers",
		"Currently connected replication followers.", "",
		stat(func(s replnet.Stats) int64 { return int64(s.Peers) }))
	reg.Counter("incll_replnet_accepts_total",
		"Follower connections accepted by the replication server.", "",
		stat(func(s replnet.Stats) int64 { return s.Accepts }))
	reg.Counter("incll_replnet_kicked_total",
		"Stale duplicate follower connections replaced by a reconnect.", "",
		stat(func(s replnet.Stats) int64 { return s.Kicked }))
	reg.Counter("incll_replnet_peer_errors_total",
		"Followers torn down on error or missed ack deadline.", "",
		stat(func(s replnet.Stats) int64 { return s.PeerErrs }))
	reg.Counter("incll_replnet_sent_bytes_total",
		"Replication payload bytes sent to followers (bootstrap and batches).", "",
		stat(func(s replnet.Stats) int64 { return s.SentBytes }))
	reg.Gauge("incll_replnet_max_peer_lag_epochs",
		"Largest released-epoch lag across connected followers.", "",
		maxPeer(func(p PeerStatus) int64 { return int64(p.LagEpochs) }))
	reg.Gauge("incll_replnet_max_queue_depth",
		"Deepest per-peer send queue (batches) across connected followers.", "",
		maxPeer(func(p PeerStatus) int64 { return int64(p.QueueDepth) }))
	reg.Histogram("incll_replnet_heartbeat_rtt_seconds",
		"Heartbeat round-trip time to followers.", "", t.rtt, 1e-9)
	for st := obs.PropStage(0); st < obs.NumPropStages; st++ {
		reg.Histogram("incll_replnet_propagation_stage_seconds",
			"Epoch propagation latency by pipeline stage, single-clock on the primary (see DESIGN.md §15).",
			obs.Labels("stage", st.String()), t.prop.StageHist(st), 1e-9)
	}
}

// registerPeer registers the labeled per-peer series of follower id, read
// off srv: zeros while that peer is disconnected, so a scrape sees every
// peer the node has ever served.
func (t *telemetry) registerPeer(reg *obs.Registry, srv *replnet.Server, id string) {
	labels := obs.Labels("peer", id)
	peer := func(read func(PeerStatus) int64) func() int64 {
		return func() int64 {
			if srv == nil {
				return 0
			}
			st, ok := srv.PeerStatus(id)
			if !ok {
				return 0
			}
			return read(st)
		}
	}
	reg.Gauge("incll_replnet_peer_lag_epochs",
		"Released epochs this follower has not yet acked.", labels,
		peer(func(p PeerStatus) int64 { return int64(p.LagEpochs) }))
	reg.Gauge("incll_replnet_peer_lag_bytes",
		"Released change bytes this follower has not yet consumed.", labels,
		peer(func(p PeerStatus) int64 { return int64(p.LagBytes) }))
	reg.Gauge("incll_replnet_peer_queue_depth",
		"Batches waiting in this follower's send queue.", labels,
		peer(func(p PeerStatus) int64 { return int64(p.QueueDepth) }))
	reg.Gauge("incll_replnet_peer_acked_epoch",
		"Last applied epoch this follower acked.", labels,
		peer(func(p PeerStatus) int64 { return int64(p.AckedEpoch) }))
	reg.Histogram("incll_replnet_commit_to_apply_seconds",
		"Checkpoint commit to this follower's durable-apply ack, stamped on the primary clock (see DESIGN.md §15).",
		labels, t.prop.PeerHist(id), 1e-9)
}

// --- follower side ---------------------------------------------------------

// FollowerOptions tunes FollowPrimary; the zero value is ready to use.
type FollowerOptions struct {
	// Options sizes the follower's local store (any shard count —
	// records route by key on restore).
	Options Options
	// ID identifies this follower to the primary (per-peer metrics key;
	// a reconnect with the same id replaces the stale connection).
	// Defaults to a stable per-follower identity (hostname plus a random
	// tag), reused across reconnects.
	ID string
	// DeadAfter is how long the stream may go silent before the primary
	// is declared down and the follower starts reconnecting (default
	// 2s). Failover policies compare Down()'s duration against their
	// promotion deadline.
	DeadAfter time.Duration
	// ReconnectMin/ReconnectMax bound the jittered exponential reconnect
	// backoff (defaults 50ms / 2s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// ReadyTimeout bounds how long FollowPrimary blocks for the first
	// bootstrap (default 30s).
	ReadyTimeout time.Duration
	// Seed seeds the reconnect jitter (0 derives one from the clock).
	Seed int64
	// Logf, if set, receives session lifecycle log lines.
	Logf func(format string, args ...any)
}

var errFollowerDone = errors.New("incll: follower closed or promoted")

// storeRef is one bootstrap generation of the follower store with a
// reader refcount. A re-bootstrap swaps a new generation in and drops the
// follower's own reference; the old store closes only when the last
// in-flight reader releases it — never under an active read.
type storeRef struct {
	db   *DB
	refs atomic.Int64
}

func newStoreRef(db *DB) *storeRef {
	r := &storeRef{db: db}
	r.refs.Store(1) // the Follower's own reference
	return r
}

func (r *storeRef) release() {
	if r.refs.Add(-1) == 0 {
		r.db.Close()
	}
}

// Follower is a replica: a local DB kept converging to a primary over
// TCP — another process, or this one through a loopback ServeReplication.
// Its state is always the primary's at some committed epoch boundary
// after each applied batch (the applier, fed by the transport client); its
// applied watermark gates reads for the read-your-writes contract. The
// follower DB's identity changes across reconnects (every reconnect is a
// fresh snapshot bootstrap) — read through GetBytes or pin a store for a
// longer operation with View; both hold the current generation open for
// the read's whole duration, so a concurrent re-bootstrap can never close
// the store out from under it.
type Follower struct {
	addr string
	o    FollowerOptions
	cli  *replnet.Client
	app  *applier // the snapshot-then-tail protocol and its progress state

	// tel is the node's telemetry, shared by every bootstrap generation:
	// the trace, histograms and recorder span re-bootstraps.
	tel *telemetry

	// Guarded by app.mu: the store is swapped by each bootstrap together
	// with the applier's progress reset, so a read never pairs a new store
	// with the old watermark.
	store    *storeRef
	promoted bool
	closed   bool
}

// pin acquires the current store generation for a read, together with the
// watermark that generation has reached; release it when done. Acquiring
// under the read lock is what makes it safe: the swap in
// netBootstrap drops the follower's own reference only after taking the
// write lock, so a generation observed here still holds that reference
// and cannot hit zero concurrently.
func (f *Follower) pin() (st *storeRef, applied uint64, ok bool) {
	f.app.mu.RLock()
	defer f.app.mu.RUnlock()
	if f.store == nil {
		return nil, 0, false
	}
	f.store.refs.Add(1)
	return f.store, f.app.applied, true
}

// FollowPrimary starts a follower of the replication primary at addr
// and blocks until its first snapshot bootstrap completes (bounded by
// ReadyTimeout). The returned follower keeps itself converged in the
// background and reconnects (with a full re-bootstrap) whenever the
// connection, the stream, or the primary fails. Store options that fail
// Options.Validate return its error before anything is dialed.
func FollowPrimary(addr string, o FollowerOptions) (*Follower, error) {
	if err := o.Options.Validate(); err != nil {
		return nil, err
	}
	if o.ReadyTimeout <= 0 {
		o.ReadyTimeout = 30 * time.Second
	}
	f := &Follower{addr: addr, o: o, app: newApplier(), tel: newTelemetry(o.Options)}
	f.tel.follower = f
	f.cli = replnet.Dial(replnet.ClientConfig{
		Addr:       addr,
		ID:         o.ID,
		Bootstrap:  f.netBootstrap,
		Apply:      f.netApply,
		DeadAfter:  o.DeadAfter,
		BackoffMin: o.ReconnectMin,
		BackoffMax: o.ReconnectMax,
		Seed:       o.Seed,
		Trace:      f.tel.trace,
		Logf:       o.Logf,
	})
	if err := f.cli.WaitReady(o.ReadyTimeout); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// netBootstrap restores one snapshot stream into a fresh DB and swaps it
// in as the follower's store. Called by the transport client on every
// (re)connect.
func (f *Follower) netBootstrap(r io.Reader) (uint64, error) {
	db, _ := openGeneration(f.o.Options, f.tel)
	var old *storeRef
	info, err := f.app.restore(r, dbTarget(db), func() error {
		if f.closed || f.promoted {
			return errFollowerDone
		}
		old, f.store = f.store, newStoreRef(db)
		f.tel.gen.Store(db)
		return nil
	})
	if err != nil {
		db.Close()
		return 0, err
	}
	if old != nil {
		// Drop the follower's reference; the old store closes once the
		// last in-flight reader releases its pin.
		old.release()
	}
	return info.AnchorEpoch, nil
}

// netApply hands one batch chunk from the transport to the applier,
// holding the current store generation open while it lands.
func (f *Follower) netApply(horizon uint64, final bool, ents []repl.Entry) error {
	st, _, ok := f.pin()
	if !ok {
		return errFollowerDone
	}
	defer st.release()
	return f.app.apply(horizon, final, ents)
}

// DB returns the follower store for reads. The identity changes across
// reconnects, and a re-bootstrap may close the returned store while the
// caller still holds it — safe only when no reconnect can be in flight
// (tests, quiesced clusters). Live read paths should use GetBytes (which
// also enforces the watermark rule) or View, both of which pin the
// current generation open for the read's duration.
func (f *Follower) DB() *DB {
	f.app.mu.RLock()
	defer f.app.mu.RUnlock()
	if f.store == nil {
		return nil
	}
	return f.store.db
}

// View runs fn against the follower's current store, holding that
// bootstrap generation open for fn's whole duration: a concurrent
// re-bootstrap swaps in its new store without waiting, but the old one
// is not closed until fn returns. Use for multi-read operations
// (iteration, snapshot export, metrics collection) on a live follower.
func (f *Follower) View(fn func(db *DB)) error {
	st, _, ok := f.pin()
	if !ok {
		return errFollowerDone
	}
	defer st.release()
	fn(st.db)
	return nil
}

// AppliedEpoch returns the follower's applied watermark: its state
// equals the primary's at this epoch's checkpoint commit.
func (f *Follower) AppliedEpoch() uint64 { return f.app.state().applied }

// BootstrapInfo describes the snapshot the current session bootstrapped
// from.
func (f *Follower) BootstrapInfo() SnapshotInfo { return f.app.state().info }

// PrimaryReleased returns the primary's released horizon as last heard.
func (f *Follower) PrimaryReleased() uint64 { return f.cli.PrimaryReleased() }

// Connected reports whether a live session is streaming right now.
func (f *Follower) Connected() bool { return f.cli.Connected() }

// Down reports whether the primary is currently unreachable and for how
// long. Failover policy: promote when the duration passes your deadline.
func (f *Follower) Down() (bool, time.Duration) {
	d := f.cli.DownFor()
	return d > 0, d
}

// Reconnects counts sessions ended (dial failures included).
func (f *Follower) Reconnects() int64 { return f.cli.Reconnects() }

// ReplicaLag quantifies how far a follower trails its primary.
type ReplicaLag struct {
	// Epochs is the number of globally committed epochs the primary has
	// released that the follower has not yet fully applied.
	Epochs uint64
}

// Lag reports how far the follower trails the primary's last-heard
// released horizon. The primary's ReplServer.Peers reports each
// follower's lag in change bytes too.
func (f *Follower) Lag() ReplicaLag {
	return ReplicaLag{Epochs: f.app.state().behind(f.cli.PrimaryReleased())}
}

// GetBytes serves a watermark-gated read: if the follower has applied at
// least minEpoch, the read is served from the local store; otherwise it
// fails with a *LagError (errors.Is ErrReplicaLagging) and the caller
// retries, here or on a less-lagged follower. Pass minEpoch 0 for a
// plain local read at whatever the follower has.
func (f *Follower) GetBytes(k []byte, minEpoch uint64) ([]byte, bool, error) {
	st, applied, ok := f.pin()
	if !ok {
		return nil, false, errFollowerDone
	}
	defer st.release()
	if minEpoch > applied {
		return nil, false, &LagError{Need: minEpoch, Have: applied}
	}
	v, ok := st.db.GetBytes(k)
	return v, ok, nil
}

// WaitWatermark blocks until the applied watermark reaches epoch or the
// timeout elapses (returning the would-be LagError on timeout).
func (f *Follower) WaitWatermark(epoch uint64, timeout time.Duration) error {
	return f.app.wait(epoch, timeout)
}

// Promote stops following and returns the follower store as a
// standalone primary, exact at AppliedEpoch. There is no catch-up first
// — promotion happens because the primary is gone; whatever it released
// but never delivered is lost with it (the usual asynchronous-failover
// contract; a caller promoting off a live primary waits with
// WaitWatermark for its ReleasedEpoch first). The
// Follower must not be used afterwards; the returned DB can
// ServeReplication so the remaining followers (and the rejoining old
// primary) resync to it.
func (f *Follower) Promote() (*DB, error) {
	f.cli.Close() // joins the apply loop: no write can land after this
	f.app.fail(errFollowerDone)
	f.app.mu.Lock()
	defer f.app.mu.Unlock()
	if f.closed {
		return nil, errFollowerDone
	}
	if f.promoted {
		return nil, errors.New("incll: follower already promoted")
	}
	f.promoted = true
	st := f.store
	f.store = nil
	if st == nil {
		return nil, errFollowerDone
	}
	// Ownership of the store transfers to the caller: the follower's
	// reference is deliberately never released, so draining readers can
	// not close the promoted DB out from under its new owner.
	db := st.db
	db.tel.trace.Record(obs.EvNetPromote, -1, f.app.applied, 0, 0)
	return db, nil
}

// Close stops the follower and closes its local store (deferred past any
// still-running pinned reader). Idempotent; a promoted follower's store
// is owned by the caller and left open.
func (f *Follower) Close() {
	f.cli.Close()
	f.app.fail(errFollowerDone)
	f.app.mu.Lock()
	if f.closed || f.promoted {
		f.app.mu.Unlock()
		return
	}
	f.closed = true
	st := f.store
	f.store = nil
	f.app.mu.Unlock()
	if st != nil {
		st.release()
	}
}

// register registers the follower-side incll_replnet_* series.
func (f *Follower) register(reg *obs.Registry) {
	reg.Gauge("incll_replnet_applied_epoch",
		"Follower applied watermark (last released epoch fully applied).", "",
		func() int64 { return int64(f.AppliedEpoch()) })
	reg.Gauge("incll_replnet_primary_released_epoch",
		"Primary released horizon as last heard by this follower.", "",
		func() int64 { return int64(f.PrimaryReleased()) })
	reg.Gauge("incll_replnet_lag_epochs",
		"Released epochs this follower still trails the primary by.", "",
		func() int64 { return int64(f.Lag().Epochs) })
	reg.Counter("incll_replnet_reconnects_total",
		"Follower sessions ended (each retried with backoff).", "",
		f.Reconnects)
	reg.Gauge("incll_replnet_connected",
		"1 while a live session is streaming from the primary.", "",
		func() int64 {
			if f.Connected() {
				return 1
			}
			return 0
		})
}
