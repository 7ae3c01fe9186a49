package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// EventKind names one protocol event in the checkpoint / recovery /
// replication life cycle.
type EventKind uint8

const (
	// EvCheckpointPrepare: one store stopped its world and flushed its
	// arena. Dur is the flush duration, Arg the lines flushed.
	EvCheckpointPrepare EventKind = iota + 1
	// EvCheckpointCommit: the store durably began the next epoch and
	// resumed. Dur is the full stop-the-world window (Prepare lock to
	// resume), Epoch the epoch just committed, Arg the nanoseconds of that
	// window spent in the boundary work (OnAdvance callbacks and commit
	// hooks) — with EvCheckpointPrepare's Dur, the window's two parts.
	EvCheckpointCommit
	// EvCoordRecord: the sharding coordinator's single-line commit record
	// was written back and fenced — the global commit point. Epoch is the
	// epoch committed.
	EvCoordRecord
	// EvJournalRelease: the replication hub's released barrier (min across
	// shard commit watermarks) advanced. Epoch is the new watermark, Arg
	// the journal bytes buffered at that moment.
	EvJournalRelease
	// EvRecoveryReplay: Open replayed external-log pre-images of a failed
	// epoch. Dur is the replay duration, Arg the entries applied.
	EvRecoveryReplay
	// EvTxnReplay: reopen replayed committed transaction intents. Arg is
	// the number of transactions re-applied.
	EvTxnReplay
	// EvSnapshotAnchor: a snapshot export took its anchor checkpoint.
	// Epoch is the anchor epoch.
	EvSnapshotAnchor
	// EvReplicaApply: a replica applied one released epoch from its change
	// stream. Epoch is the epoch applied, Arg the entries in it.
	EvReplicaApply
	// EvReplicaResync: a replica fell off its stream and re-bootstrapped
	// from a fresh snapshot. Epoch is the new anchor.
	EvReplicaResync
	// EvFlightDump: the anomaly watchdog wrote a flight-recorder dump.
	// Epoch is the running epoch at dump time.
	EvFlightDump
	// EvFlightDumpFailed: a flight-recorder dump could not be written (the
	// watchdog never fails the process; this event is the only residue).
	EvFlightDumpFailed
	// EvReshardStart: a reshard began. Epoch is the donor's current epoch,
	// Arg the target shard count.
	EvReshardStart
	// EvReshardSnapshot: the reshard snapshot copy finished restoring into
	// the target. Epoch is the snapshot anchor, Arg the keys copied.
	EvReshardSnapshot
	// EvReshardTail: the reshard tail applied one released donor epoch to
	// the target. Epoch is the epoch applied, Arg the entries in it.
	EvReshardTail
	// EvReshardCutover: the topology manifest committed the new shard
	// count — the reshard's durable point of no return. Epoch is the donor
	// epoch at cutover, Arg the new topology version.
	EvReshardCutover
	// EvReshardDone: the reshard finished and the new topology serves all
	// traffic. Arg is the new shard count.
	EvReshardDone
	// EvNetPeerUp: a replication follower finished its snapshot bootstrap
	// on the primary. Epoch is the bootstrap anchor, Dur the handshake +
	// bootstrap time, Arg the connected-peer count after.
	EvNetPeerUp
	// EvNetPeerDown: a replication follower disconnected (or was declared
	// dead). Epoch is its last acked epoch, Dur the session length, Arg
	// the connected-peer count after.
	EvNetPeerDown
	// EvNetFollowerConnect: a networked follower completed a (re)connect
	// bootstrap. Epoch is the anchor, Dur the bootstrap time.
	EvNetFollowerConnect
	// EvNetPromote: a networked follower was promoted to primary. Epoch
	// is its applied watermark at promotion.
	EvNetPromote
	// EvClusterDump: a flight-recorder dump captured the cluster state
	// (cluster.json: peer table + epoch-timeline tail). Epoch is the
	// running epoch at dump time, Arg the connected-peer count — the
	// event anchors the dump in the timeline for post-mortems.
	EvClusterDump
)

// String returns the event kind's stable lower-snake name (also used in
// trace dumps and artifacts).
func (k EventKind) String() string {
	switch k {
	case EvCheckpointPrepare:
		return "checkpoint_prepare"
	case EvCheckpointCommit:
		return "checkpoint_commit"
	case EvCoordRecord:
		return "coord_record"
	case EvJournalRelease:
		return "journal_release"
	case EvRecoveryReplay:
		return "recovery_replay"
	case EvTxnReplay:
		return "txn_replay"
	case EvSnapshotAnchor:
		return "snapshot_anchor"
	case EvReplicaApply:
		return "replica_apply"
	case EvReplicaResync:
		return "replica_resync"
	case EvFlightDump:
		return "flight_dump"
	case EvFlightDumpFailed:
		return "flight_dump_failed"
	case EvReshardStart:
		return "reshard_start"
	case EvReshardSnapshot:
		return "reshard_snapshot"
	case EvReshardTail:
		return "reshard_tail"
	case EvReshardCutover:
		return "reshard_cutover"
	case EvReshardDone:
		return "reshard_done"
	case EvNetPeerUp:
		return "net_peer_up"
	case EvNetPeerDown:
		return "net_peer_down"
	case EvNetFollowerConnect:
		return "net_follower_connect"
	case EvNetPromote:
		return "net_promote"
	case EvClusterDump:
		return "cluster_dump"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one timestamped protocol event.
type Event struct {
	Seq   uint64        // monotonically increasing per tracer
	Time  time.Time     // wall-clock time of the event
	Kind  EventKind     //
	Shard int           // originating shard, or -1 when not shard-scoped
	Epoch uint64        // epoch the event concerns, 0 when not applicable
	Dur   time.Duration // measured duration, 0 when not applicable
	Arg   int64         // kind-specific payload (lines, entries, bytes)
}

// Tracer records protocol events into a fixed-size ring, overwriting the
// oldest once full. A nil *Tracer is valid and discards everything, so
// instrumented layers never need to branch on "is tracing on". Record
// takes a mutex: it is for rare events (per epoch, per recovery), never
// per-operation.
type Tracer struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event
	n    int // events stored (≤ len(ring))
	next int // ring slot the next event lands in
}

// DefaultTraceEvents is the ring capacity NewTracer(0) provides — a few
// minutes of epoch-boundary events at the paper's 64 ms cadence.
const DefaultTraceEvents = 1024

// NewTracer returns a tracer holding the last capacity events (0 means
// DefaultTraceEvents).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Record appends one event. Safe on a nil tracer (no-op).
func (t *Tracer) Record(kind EventKind, shard int, epoch uint64, dur time.Duration, arg int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.seq++
	t.ring[t.next] = Event{
		Seq:   t.seq,
		Time:  now,
		Kind:  kind,
		Shard: shard,
		Epoch: epoch,
		Dur:   dur,
		Arg:   arg,
	}
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Events returns a copy of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Dump writes the buffered events to w, oldest first, one line per event:
//
//	seq time kind shard=N epoch=E dur=D arg=A
//
// Safe on a nil tracer (writes nothing).
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		_, err := fmt.Fprintf(w, "%6d %s %-18s shard=%-3d epoch=%-6d dur=%-12s arg=%d\n",
			e.Seq, e.Time.Format("15:04:05.000000"), e.Kind, e.Shard, e.Epoch, e.Dur, e.Arg)
		if err != nil {
			return err
		}
	}
	return nil
}
