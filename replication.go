package incll

// Checkpoint-anchored replication: online snapshots and change streams.
// The paper's contribution is a cheap, always-available consistency point
// — the per-epoch checkpoint — and this file is what lets that
// consistency point leave the process:
//
//   - DB.Snapshot streams a consistent full copy of a live DB to any
//     io.Writer, anchored at a globally committed epoch, without ever
//     delaying a checkpoint by more than one cursor batch.
//   - DB.Changes subscribes to the epoch-tagged change stream (CDC): the
//     committed mutations of each epoch, released when the epoch's
//     coordinated checkpoint commits.
//   - Restore rebuilds a DB from a snapshot stream (into any shard
//     count), verifying it end to end.
//
// The follower that composes the three — bootstrap from a snapshot, apply
// the live stream, report lag, promote — is Follower (replserve.go); an
// in-process follower is a Follower of a loopback ServeReplication. See
// internal/repl and DESIGN.md §10 for the protocol and wire format.

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
	// fresh snapshot (a Follower does this by reconnecting).
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
	// Shard is the source shard (always 0 on a one-shard DB).
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
		db.replHub = repl.NewHub(e.shards.Stores(), e.opts.ChangeJournalBytes)
		db.replHub.Instrument(db.tel.trace)
		db.replHub.InstrumentTimeline(db.tel.prop)
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
		Hook:       db.crashHook(),
		Trace:      db.tel.trace,
	}
	return e.Export(w)
}

// Restore builds a fresh DB (with opts, which need not match the source's
// sharding — records route by key) from a snapshot stream. The stream is
// verified end to end — per-frame checksums, record counts, and the
// stream's record checksum — and the restored state is committed only
// after full verification: a truncated or corrupt stream returns
// ErrBadStream and never a silently wrong DB. Options that fail
// Options.Validate return its error before anything is opened.
func Restore(r io.Reader, opts Options) (*DB, SnapshotInfo, error) {
	if err := opts.Validate(); err != nil {
		return nil, SnapshotInfo{}, err
	}
	db, _ := Open(opts)
	info, err := repl.Restore(r, dbTarget(db).Target)
	if err != nil {
		db.Close()
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
			db.tel.trace.Record(obs.EvReplicaApply, -1, horizon, took, int64(nb))
			return nil
		},
	}
}
