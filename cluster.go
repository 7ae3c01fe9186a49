package incll

// Whole-cluster health aggregation (see DESIGN.md §15): ClusterStatus is
// the JSON document kvserver serves at /cluster and cmd/incll-top renders.
// One call on each node answers "who is this node, how far has it
// replicated, and how long does a commit take to become readable on each
// follower" — the quantities the watermark read contract (§14) depends
// on. The per-peer propagation quantiles come from the same histograms
// the registry exports, so /cluster and a /metrics scrape always agree.

import (
	"time"

	"incll/internal/obs"
)

// ClusterPeer is one connected follower as seen by the primary: the
// replication progress gauges from the peer table plus the end-to-end
// commit-to-apply latency distilled from the propagation timeline.
type ClusterPeer struct {
	ID          string    `json:"id"`
	Remote      string    `json:"remote"`
	ConnectedAt time.Time `json:"connected_at"`
	AnchorEpoch uint64    `json:"anchor_epoch"`
	SentEpoch   uint64    `json:"sent_epoch"`
	AckedEpoch  uint64    `json:"acked_epoch"`
	LagEpochs   uint64    `json:"lag_epochs"`
	LagBytes    uint64    `json:"lag_bytes"`
	QueueDepth  int       `json:"queue_depth"`
	SentBytes   int64     `json:"sent_bytes"`
	RTTMicros   float64   `json:"rtt_us"`
	LastAck     time.Time `json:"last_ack"`

	// Commit-to-apply: checkpoint commit on the primary to this peer's
	// durable-apply ack, single-clock (primary) microseconds.
	CommitToApplyP50Micros float64 `json:"commit_to_apply_p50_us"`
	CommitToApplyP99Micros float64 `json:"commit_to_apply_p99_us"`
	CommitToApplySamples   int64   `json:"commit_to_apply_samples"`
}

// FollowerView is the follower-side half of ClusterStatus: this node's
// own replication state while it follows a primary.
type FollowerView struct {
	PrimaryAddr     string  `json:"primary_addr"`
	Connected       bool    `json:"connected"`
	AppliedEpoch    uint64  `json:"applied_epoch"`
	PrimaryReleased uint64  `json:"primary_released_epoch"`
	LagEpochs       uint64  `json:"lag_epochs"`
	Reconnects      int64   `json:"reconnects"`
	DownForMS       float64 `json:"down_for_ms,omitempty"`
}

// ClusterStatus is one node's point-in-time cluster health document.
type ClusterStatus struct {
	// Role is "primary" (serving replication), "standalone" (no
	// replication attached), or "follower".
	Role          string `json:"role"`
	Epoch         uint64 `json:"epoch"`
	ReleasedEpoch uint64 `json:"released_epoch"`
	Shards        int    `json:"shards"`
	Keys          int    `json:"keys"`

	// Peers is the primary-side follower table (empty on followers and
	// standalone nodes).
	Peers []ClusterPeer `json:"peers,omitempty"`

	// Stages summarizes each propagation pipeline stage (release_wait,
	// queue_wait, wire, apply_ack), nanoseconds on the primary clock.
	Stages map[string]obs.HistSnapshot `json:"propagation_stage_ns,omitempty"`

	// Aggregate commit-to-apply across all peers, microseconds.
	CommitToApplyP50Micros float64 `json:"commit_to_apply_p50_us,omitempty"`
	CommitToApplyP99Micros float64 `json:"commit_to_apply_p99_us,omitempty"`

	// Timeline is the tail of the per-epoch stamp ring (full lifecycle
	// stamps for the most recent epochs).
	Timeline []obs.TimelineEpoch `json:"timeline,omitempty"`

	// Follower is this node's own replication state while following.
	Follower *FollowerView `json:"follower,omitempty"`
}

// clusterTimelineTail bounds the timeline tail in /cluster responses;
// flight dumps keep a longer one (flightTimelineTail).
const (
	clusterTimelineTail = 8
	flightTimelineTail  = 64
)

// ClusterStatus returns this DB's cluster health document: role, epoch
// horizons, the per-peer replication progress and commit-to-apply
// latency when serving replication, and the propagation stage summary.
// Cheap enough to poll every second; never activates the change journal.
func (db *DB) ClusterStatus() ClusterStatus {
	return db.clusterStatus(clusterTimelineTail)
}

func (db *DB) clusterStatus(tail int) ClusterStatus {
	cs := ClusterStatus{
		Role:   "standalone",
		Epoch:  db.currentEpoch(),
		Shards: db.Shards(),
		Keys:   db.Len(),
	}
	if h := db.hubIfAttached(); h != nil {
		cs.ReleasedEpoch = h.Released()
	}
	tl := db.tel.prop
	if srv := db.server(); srv != nil {
		cs.Role = "primary"
		for _, p := range srv.PeersSnapshot() {
			cp := ClusterPeer{
				ID:          p.ID,
				Remote:      p.Remote,
				ConnectedAt: p.ConnectedAt,
				AnchorEpoch: p.AnchorEpoch,
				SentEpoch:   p.SentEpoch,
				AckedEpoch:  p.AckedEpoch,
				LagEpochs:   p.LagEpochs,
				LagBytes:    p.LagBytes,
				QueueDepth:  p.QueueDepth,
				SentBytes:   p.SentBytes,
				RTTMicros:   float64(p.RTT.Nanoseconds()) / 1e3,
				LastAck:     p.LastAck,
			}
			h := tl.PeerHist(p.ID)
			cp.CommitToApplyP50Micros = float64(h.Quantile(0.50)) / 1e3
			cp.CommitToApplyP99Micros = float64(h.Quantile(0.99)) / 1e3
			cp.CommitToApplySamples = h.Count()
			cs.Peers = append(cs.Peers, cp)
		}
	}
	if db.propagating() {
		cs.Stages = make(map[string]obs.HistSnapshot, obs.NumPropStages)
		for st := obs.PropStage(0); st < obs.NumPropStages; st++ {
			cs.Stages[st.String()] = tl.StageHist(st).Snapshot()
		}
		all := tl.AllHist()
		cs.CommitToApplyP50Micros = float64(all.Quantile(0.50)) / 1e3
		cs.CommitToApplyP99Micros = float64(all.Quantile(0.99)) / 1e3
		cs.Timeline = tl.Tail(tail)
	}
	return cs
}

// ClusterStatus returns the follower-side cluster health document: the
// node's own replication state plus the pinned store's epoch horizons.
func (f *Follower) ClusterStatus() ClusterStatus {
	cs := ClusterStatus{Role: "follower"}
	fv := &FollowerView{
		PrimaryAddr:     f.addr,
		Connected:       f.Connected(),
		AppliedEpoch:    f.AppliedEpoch(),
		PrimaryReleased: f.PrimaryReleased(),
		LagEpochs:       f.Lag().Epochs,
		Reconnects:      f.Reconnects(),
	}
	if down, d := f.Down(); down {
		fv.DownForMS = float64(d.Microseconds()) / 1e3
	}
	cs.Follower = fv
	cs.ReleasedEpoch = fv.AppliedEpoch
	f.View(func(db *DB) {
		cs.Epoch = db.currentEpoch()
		cs.Shards = db.Shards()
		cs.Keys = db.Len()
	})
	return cs
}
