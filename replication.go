package incll

// Checkpoint-anchored replication: online snapshots, change streams, and
// the catch-up replica. The paper's contribution is a cheap, always-
// available consistency point — the per-epoch checkpoint — and this file
// is what lets that consistency point leave the process:
//
//   - DB.Snapshot streams a consistent full copy of a live DB to any
//     io.Writer, anchored at a globally committed epoch, without ever
//     delaying a checkpoint by more than one cursor batch.
//   - DB.Changes subscribes to the epoch-tagged change stream (CDC): the
//     committed mutations of each epoch, released when the epoch's
//     coordinated checkpoint commits.
//   - Restore rebuilds a DB from a snapshot stream (into any shard
//     count), verifying it end to end.
//   - NewReplica composes the three into an asynchronous follower that
//     bootstraps from a snapshot, applies the live stream, reports lag,
//     and can be promoted to primary.
//
// See internal/repl and DESIGN.md §10 for the protocol and wire format.

import (
	"io"
	"time"

	"incll/internal/core"
	"incll/internal/obs"
	"incll/internal/repl"
)

// Replication errors (see internal/repl).
var (
	// ErrStreamLost means a change-stream subscriber fell behind the
	// journal's byte budget or the primary crashed; re-bootstrap from a
	// fresh snapshot (Replica does this via Resync).
	ErrStreamLost = repl.ErrStreamLost
	// ErrStreamClosed means the primary shut down cleanly and the stream
	// has been fully drained.
	ErrStreamClosed = repl.ErrStreamClosed
	// ErrBadStream reports a malformed, corrupt, or truncated snapshot
	// stream; Restore never half-applies one silently.
	ErrBadStream = repl.ErrBadStream
)

// SnapshotInfo describes one snapshot stream: the anchor epoch it is
// exact at, record counts, and wire size.
type SnapshotInfo = repl.SnapshotInfo

// ChangeOp identifies one change-stream mutation kind.
type ChangeOp = core.ChangeOp

// Change-stream mutation kinds.
const (
	// ChangePut is a put; Value carries the full new byte value.
	ChangePut = core.ChangePut
	// ChangeDelete is a deletion; Value is nil.
	ChangeDelete = core.ChangeDelete
)

// Change is one committed mutation observed through DB.Changes.
type Change struct {
	// Op is the mutation kind.
	Op ChangeOp
	// Key and Value may be retained by the consumer.
	Key, Value []byte
	// Epoch is the (globally committed) epoch the mutation belongs to.
	Epoch uint64
	// Shard is the source shard (0 on an unsharded DB).
	Shard int
}

// ChangeBatch is one released slice of the change stream: every committed
// mutation up to Epoch that was not yet delivered, in apply order (total
// per key). A batch may be empty — a checkpoint committed with no writes
// — which still advances the consumer's view of the committed horizon.
type ChangeBatch struct {
	Epoch   uint64
	Changes []Change
}

// ChangeStream is a subscription to the DB's committed-change feed (CDC).
// Entries published after the subscription begins are delivered exactly
// once, released batch-wise at each checkpoint commit; a consistent full
// copy is obtained by subscribing first and scanning after (which is
// exactly what DB.Snapshot does). Next is single-consumer; Close may be
// called concurrently to unblock it.
type ChangeStream struct {
	sub *repl.Subscription
}

// Changes subscribes to the DB's change stream, starting now: the first
// batch holds every mutation of the epochs not yet released at this
// moment — all mutations applied after this call, plus possibly the
// already-applied part of the current uncommitted epochs (a harmless
// superset for last-write-wins replay). Attaching the first subscriber
// activates the change journal (one atomic load per write before that;
// per-shard journal appends after).
func (db *DB) Changes() *ChangeStream {
	return &ChangeStream{sub: db.hub().Subscribe()}
}

// Next blocks until the next checkpoint commit releases more of the
// stream, and returns the newly released batch. Returns ErrStreamClosed
// after a clean primary shutdown is fully drained, ErrStreamLost if the
// subscriber lagged past the journal budget or the primary crashed — a
// crash still lets the subscriber drain everything already released
// (released epochs are committed on NVM and survive the crash); only the
// unreleased tail is lost.
func (s *ChangeStream) Next() (ChangeBatch, error) {
	b, err := s.sub.Next()
	if err != nil {
		return ChangeBatch{}, err
	}
	out := ChangeBatch{Epoch: b.Epoch}
	if len(b.Entries) > 0 {
		out.Changes = make([]Change, len(b.Entries))
		for i := range b.Entries {
			e := &b.Entries[i]
			out.Changes[i] = Change{Op: e.Op, Key: e.Key, Value: e.Val, Epoch: e.Epoch, Shard: e.Shard}
		}
	}
	return out, nil
}

// Released returns the last globally committed epoch — the stream's
// released high-water mark.
func (s *ChangeStream) Released() uint64 { return s.sub.Released() }

// PendingBytes reports the released entry bytes not yet consumed through
// Next: the byte lag of this subscriber.
func (s *ChangeStream) PendingBytes() uint64 { return s.sub.PendingBytes() }

// Close detaches the subscription, releasing its journal retention and
// unblocking a concurrent Next.
func (s *ChangeStream) Close() { s.sub.Close() }

// hub returns the DB's change hub, attaching it on first use. The hub is
// bound to the live engine's stores; a reshard cutover closes it (its
// subscribers see ErrStreamLost and re-bootstrap against the new
// topology) and the next use attaches a fresh one.
func (db *DB) hub() *repl.Hub {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.replHub == nil {
		e := db.engine()
		db.replHub = repl.NewHub(e.stores(), e.opts.ChangeJournalBytes)
		db.replHub.Instrument(db.trace)
		db.replHub.InstrumentTimeline(db.propagation())
	}
	return db.replHub
}

// closeHub ends the change stream at DB teardown: gracefully on Close,
// abruptly (ErrStreamLost) on SimulateCrash.
func (db *DB) closeHub(graceful bool) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.replHub != nil {
		db.replHub.Close(graceful)
	}
}

// SetSnapshotHook installs the snapshot crash-injection hook, fired at
// every export protocol point; a non-nil return aborts the export with
// that error. Never use outside tests (see internal/crashtest).
func (db *DB) SetSnapshotHook(h func(point string) error) { db.snapHook = h }

// Snapshot streams a consistent online full snapshot of the live DB to w:
// checksummed, length-prefixed frames holding every key/value plus the
// change records that anchor the fuzzy scan at a committed epoch (see
// internal/repl). The export runs concurrently with writers and holds the
// epoch machinery for at most one cursor batch at a time, so it never
// delays a checkpoint by more than one batch; it forces exactly one
// checkpoint (the anchor). Restore reproduces the primary's state at the
// anchor epoch's coordinated commit point, byte for byte.
func (db *DB) Snapshot(w io.Writer) (SnapshotInfo, error) {
	e := &repl.Exporter{
		Hub:        db.hub(),
		NewIter:    func() core.Cursor { return db.NewIter(IterOptions{}) },
		Checkpoint: func() { db.Checkpoint() },
		Shards:     db.Shards(),
		KeyHint:    uint64(db.Len()),
		Hook:       db.snapHook,
		Trace:      db.trace,
	}
	return e.Export(w)
}

// Restore builds a fresh DB (with opts, which need not match the source's
// sharding — records route by key) from a snapshot stream. The stream is
// verified end to end — per-frame checksums, record counts, and the
// stream's record checksum — and the restored state is committed only
// after full verification: a truncated or corrupt stream returns
// ErrBadStream and never a silently wrong DB.
func Restore(r io.Reader, opts Options) (*DB, SnapshotInfo, error) {
	db, _ := Open(opts)
	info, err := repl.Restore(r, dbTarget(db).Target)
	if err != nil {
		return nil, info, err
	}
	return db, info, nil
}

// dbTarget lands restored and replicated records in a follower DB; each
// committed batch shows up in the follower's own phase trace.
func dbTarget(db *DB) applyTarget {
	return applyTarget{
		Target: repl.Target{
			Put: func(k, v []byte) error {
				_, err := db.PutBytes(k, v)
				return err
			},
			Delete: func(k []byte) error {
				db.Delete(k)
				return nil
			},
			Checkpoint: func() { db.Checkpoint() },
		},
		batchDone: func(horizon uint64, took time.Duration, _ int, nb uint64) error {
			db.trace.Record(obs.EvReplicaApply, -1, horizon, took, int64(nb))
			return nil
		},
	}
}

// ReplicaLag quantifies how far a replica trails its primary.
type ReplicaLag struct {
	// Epochs is the number of globally committed epochs the primary has
	// released that the replica has not yet fully applied.
	Epochs uint64
	// Bytes is the released change-entry bytes not yet applied.
	Bytes uint64
}

// Replica is an asynchronous follower: a DB bootstrapped from a snapshot
// of the primary that applies the live change stream in the background,
// checkpointing after each released batch — so at every moment its state
// is exactly the primary's at some committed epoch (AppliedEpoch), never
// a torn mixture. Reads on DB() are safe concurrently with the apply
// loop; use CatchUp for a moment of equality with a given horizon, and
// Promote to turn the follower into a standalone primary.
type Replica struct {
	opts Options
	app  *applier // the snapshot-then-tail protocol and its progress state

	// Guarded by app.mu; swapped by each bootstrap together with the
	// applier's progress reset.
	db   *DB
	done chan struct{} // closed when the generation's tail goroutine exits
}

// NewReplica bootstraps a follower of primary: it subscribes to the
// change stream, streams a snapshot into a fresh DB built with opts (any
// shard count), and starts the background apply loop. Returns once the
// bootstrap is complete (the replica is exact at the snapshot's anchor
// epoch and catching up from there).
func NewReplica(primary *DB, opts Options) (*Replica, error) {
	r := &Replica{opts: opts, app: newApplier()}
	if err := r.bootstrap(primary); err != nil {
		return nil, err
	}
	return r, nil
}

// bootstrap restores a fresh follower from src and starts tailing src's
// change feed into it until the feed ends.
func (r *Replica) bootstrap(src snapshotSource) error {
	db, _ := Open(r.opts)
	done := make(chan struct{})
	// The follower is swapped in under the applier's lock: a monitoring
	// goroutine may be reading Lag/AppliedEpoch/Err concurrently with a
	// Resync.
	info, err := r.app.bootstrap(src, dbTarget(db), func() error {
		r.db, r.done = db, done
		return nil
	})
	if err != nil {
		db.Close()
		return err
	}
	// The bootstrap (and every Resync) shows up in the follower's own
	// phase trace, and the follower serves its own lag gauges: a replica
	// is scraped as its own process, not through the primary.
	db.trace.Record(obs.EvReplicaResync, -1, info.AnchorEpoch, 0, int64(info.Keys))
	db.registerReplicaGauges(r)
	go func() {
		defer close(done)
		r.app.fail(r.app.tail(tailForever))
	}()
	return nil
}

// DB returns the follower store for reads. Writing to it (other than by
// the apply loop) forfeits the equality guarantee; Promote first. The
// identity changes across Resync.
func (r *Replica) DB() *DB {
	r.app.mu.RLock()
	defer r.app.mu.RUnlock()
	return r.db
}

// AppliedEpoch returns the last released epoch the replica has fully
// applied and committed: the replica's state equals the primary's at this
// epoch's checkpoint commit.
func (r *Replica) AppliedEpoch() uint64 { return r.app.state().applied }

// AppliedBytes returns the change bytes applied since bootstrap.
func (r *Replica) AppliedBytes() uint64 { return r.app.state().bytes }

// Err returns the apply loop's terminal error, if it has stopped:
// ErrStreamClosed after a clean primary shutdown (fully drained),
// ErrStreamLost after a primary crash or journal overrun (Resync to
// recover), nil while running.
func (r *Replica) Err() error { return r.app.state().err }

// Lag reports how far the replica trails the primary's released horizon,
// in epochs and change bytes.
func (r *Replica) Lag() ReplicaLag {
	st := r.app.state()
	return ReplicaLag{Epochs: st.behind(st.feed.Released()), Bytes: st.feed.PendingBytes()}
}

// CatchUp blocks until the replica has applied everything the primary had
// released at the moment of the call (later releases may keep arriving).
// Returns the stream's terminal error if it ends before reaching that
// horizon.
func (r *Replica) CatchUp() error {
	return r.app.wait(r.app.state().feed.Released(), waitForever)
}

// Promote turns the follower into a standalone primary: it applies
// everything the primary has released (failing with the stream's terminal
// error if the stream was lost short of that), detaches from the stream,
// and returns the follower DB, now safe to write. The Replica must not be
// used afterwards.
func (r *Replica) Promote() (*DB, error) {
	if err := r.CatchUp(); err != nil {
		return nil, err
	}
	db := r.detach()
	return db, nil
}

// detach stops the apply loop and takes ownership of the follower.
func (r *Replica) detach() *DB {
	r.app.mu.Lock()
	feed, done, db := r.app.feed, r.done, r.db
	r.db = nil
	r.app.mu.Unlock()
	feed.Close()
	<-done
	return db
}

// Resync re-bootstraps the replica from primary (typically after the old
// primary crashed and was reopened, which loses the volatile change
// journal): the current follower is discarded and a fresh snapshot
// bootstrap runs against the given primary. The follower DB identity
// changes; re-fetch it with DB().
func (r *Replica) Resync(primary *DB) error {
	if db := r.detach(); db != nil {
		db.Close()
	}
	return r.bootstrap(primary)
}

// Close stops the apply loop and shuts the follower down cleanly.
func (r *Replica) Close() {
	if db := r.detach(); db != nil {
		db.Close()
	}
}
