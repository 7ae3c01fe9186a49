package incll

// End-to-end epoch propagation tracing (DESIGN.md §15): a primary with
// two loopback followers under checkpointed write load must populate the
// per-peer commit-to-apply histograms and the per-stage breakdown, the
// timeline ring's stamps must be monotone per epoch (commit ≤ release ≤
// enqueue ≤ first send ≤ final send ≤ ack — all on the primary's clock),
// and /cluster's numbers must agree with the registry scrape.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"incll/internal/testutil"
)

func TestPropagationTracingTwoFollowers(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	defer db.Close()
	fillMatrix(t, db, 100, 1)
	db.Checkpoint()

	rs := serveRepl(t, db)
	defer rs.Close()
	f1 := followT(t, rs.Addr().String(), FollowerOptions{ID: "f1"})
	defer f1.Close()
	f2 := followT(t, rs.Addr().String(), FollowerOptions{ID: "f2"})
	defer f2.Close()

	// Checkpointed write load: every Checkpoint commits and releases an
	// epoch, so each round exercises the full release → enqueue → send →
	// ack pipeline for both peers.
	for i := 0; i < 30; i++ {
		if _, err := db.PutBytes([]byte(fmt.Sprintf("prop-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		db.Checkpoint()
	}
	rel := db.ReleasedEpoch()
	for _, f := range []*Follower{f1, f2} {
		if err := f.WaitWatermark(rel, 10*time.Second); err != nil {
			t.Fatalf("WaitWatermark(%d): %v (applied %d)", rel, err, f.AppliedEpoch())
		}
	}

	// Acks are watermarks swept by heartbeats, so a raced final-send can
	// be sampled one heartbeat late; wait for every peer sample to land.
	waitCond(t, "propagation samples", func() bool {
		p := db.Metrics().Propagation
		return p.Attached && p.SampledAcks > 0 &&
			p.PerPeer["f1"].Count > 0 && p.PerPeer["f2"].Count > 0
	})
	waitCond(t, "sample count stable", func() bool {
		a := db.Metrics().Propagation.SampledAcks
		time.Sleep(30 * time.Millisecond)
		return db.Metrics().Propagation.SampledAcks == a
	})

	met := db.Metrics().Propagation
	for _, stage := range []string{"release_wait", "queue_wait", "wire", "apply_ack"} {
		if met.Stages[stage].Count == 0 {
			t.Errorf("stage %s has no samples: %+v", stage, met.Stages)
		}
	}
	if met.CommitToApply.Count == 0 || met.CommitToApply.P99 <= 0 {
		t.Errorf("aggregate commit-to-apply empty: %+v", met.CommitToApply)
	}

	// The /cluster document and a /metrics scrape are built from the same
	// histograms and must agree (the load is quiesced, so no drift).
	cs := db.ClusterStatus()
	if cs.Role != "primary" || len(cs.Peers) != 2 {
		t.Fatalf("ClusterStatus role=%s peers=%d", cs.Role, len(cs.Peers))
	}
	var scrape bytes.Buffer
	if err := db.WriteMetrics(&scrape); err != nil {
		t.Fatal(err)
	}
	// The live two-peer exposition passes the linter: per-peer labeled
	// families emit HELP once and keep consistent label keys.
	if err := testutil.CheckExposition(bytes.NewReader(scrape.Bytes())); err != nil {
		t.Fatalf("lint of live 2-peer scrape: %v", err)
	}
	exp, err := testutil.ParseExposition(bytes.NewReader(scrape.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cs.Peers {
		if p.CommitToApplySamples == 0 || p.CommitToApplyP99Micros <= 0 {
			t.Errorf("peer %s: no propagation samples in /cluster: %+v", p.ID, p)
		}
		if p.CommitToApplyP50Micros > p.CommitToApplyP99Micros {
			t.Errorf("peer %s: p50 %v > p99 %v", p.ID, p.CommitToApplyP50Micros, p.CommitToApplyP99Micros)
		}
		n, err := exp.Value("incll_replnet_commit_to_apply_seconds_count", "peer", p.ID)
		if err != nil {
			t.Fatalf("peer %s count in scrape: %v", p.ID, err)
		}
		if int64(n) != p.CommitToApplySamples {
			t.Errorf("peer %s: scrape count %v != /cluster samples %d", p.ID, n, p.CommitToApplySamples)
		}
	}

	// Stage stamps are monotone per sampled epoch — everything is stamped
	// on the primary's clock, so ordering violations can only be bugs, not
	// clock skew.
	stamped := 0
	for _, e := range cs.Timeline {
		if e.Commit != 0 && e.Release != 0 && e.Release < e.Commit {
			t.Errorf("epoch %d: release %d < commit %d", e.Epoch, e.Release, e.Commit)
		}
		for _, p := range e.Peers {
			prev := e.Release
			for _, st := range []int64{p.Enqueue, p.FirstSend, p.FinalSend, p.Ack} {
				if st == 0 {
					continue
				}
				if st < prev {
					t.Errorf("epoch %d peer %s: stamp order violated: %+v", e.Epoch, p.Peer, p)
					break
				}
				prev = st
			}
			if p.Ack != 0 {
				stamped++
			}
		}
	}
	if stamped == 0 {
		t.Errorf("timeline tail has no fully-acked peer stamps: %+v", cs.Timeline)
	}
}

// TestFollowerClusterStatus pins the follower-side /cluster document.
func TestFollowerClusterStatus(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	fillMatrix(t, db, 50, 2)
	db.Checkpoint()

	rs := serveRepl(t, db)
	defer rs.Close()
	f := followT(t, rs.Addr().String(), FollowerOptions{ID: "fv"})
	defer f.Close()
	rel := db.ReleasedEpoch()
	if err := f.WaitWatermark(rel, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	cs := f.ClusterStatus()
	if cs.Role != "follower" || cs.Follower == nil {
		t.Fatalf("follower ClusterStatus: %+v", cs)
	}
	fv := cs.Follower
	if !fv.Connected || fv.AppliedEpoch < rel || fv.PrimaryAddr != rs.Addr().String() {
		t.Errorf("follower view: %+v (want connected, applied>=%d, addr=%s)", fv, rel, rs.Addr())
	}
	if cs.Keys == 0 || cs.Epoch == 0 {
		t.Errorf("follower store view empty: %+v", cs)
	}
	if len(cs.Peers) != 0 {
		t.Errorf("follower reports primary-side peers: %+v", cs.Peers)
	}
}
