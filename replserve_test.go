package incll

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// listenLoopback returns a fresh loopback TCP listener.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return lis
}

func serveRepl(t *testing.T, db *DB) *ReplServer {
	t.Helper()
	// Fast heartbeats for quick convergence, but a generous ack deadline:
	// under the race detector a follower applying a batch can go silent
	// for well over 4 heartbeats without being dead.
	rs, err := db.ServeReplication(listenLoopback(t), ReplServerOptions{
		Heartbeat: 20 * time.Millisecond,
		DeadAfter: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("ServeReplication: %v", err)
	}
	return rs
}

func followT(t *testing.T, addr string, o FollowerOptions) *Follower {
	t.Helper()
	if o.ReadyTimeout == 0 {
		o.ReadyTimeout = 15 * time.Second
	}
	if o.DeadAfter == 0 {
		o.DeadAfter = 300 * time.Millisecond
	}
	f, err := FollowPrimary(addr, o)
	if err != nil {
		t.Fatalf("FollowPrimary(%s): %v", addr, err)
	}
	return f
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowPrimaryConverges bootstraps a networked follower and checks
// it converges to a byte-identical copy, then keeps up with live writes.
func TestFollowPrimaryConverges(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	defer db.Close()
	fillMatrix(t, db, 200, 1)
	db.Checkpoint()

	rs := serveRepl(t, db)
	f := followT(t, rs.Addr().String(), FollowerOptions{ID: "f1"})
	defer f.Close()

	// Bootstrap state matches.
	rel := db.ReleasedEpoch()
	if err := f.WaitWatermark(rel, 10*time.Second); err != nil {
		t.Fatalf("WaitWatermark(%d): %v", rel, err)
	}
	requireEqualDBs(t, db, f.DB())

	// Live writes stream through.
	for i := 0; i < 50; i++ {
		if _, err := db.PutBytes([]byte(fmt.Sprintf("live-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			db.Checkpoint()
		}
	}
	db.Checkpoint()
	rel = db.ReleasedEpoch()
	if err := f.WaitWatermark(rel, 10*time.Second); err != nil {
		t.Fatalf("WaitWatermark(live %d): %v (applied %d)", rel, err, f.AppliedEpoch())
	}
	requireEqualDBs(t, db, f.DB())

	// Primary-side bookkeeping saw the follower.
	waitCond(t, "peer acked", func() bool {
		ps := rs.Peers()
		return len(ps) == 1 && ps[0].AckedEpoch >= rel
	})
}

// TestWatermarkReadRule pins the read contract: a follower never serves
// a read above its applied watermark, and a client that captured commit
// epoch E after its write always reads that write back once the
// follower's watermark reaches E.
func TestWatermarkReadRule(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if _, err := db.PutBytes([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	db.Checkpoint()

	rs := serveRepl(t, db)
	f := followT(t, rs.Addr().String(), FollowerOptions{ID: "f1"})
	defer f.Close()

	// A demand above the watermark fails typed — never a stale value.
	future := f.AppliedEpoch() + 1000
	_, _, rerr := f.GetBytes([]byte("k0"), future)
	if !errors.Is(rerr, ErrReplicaLagging) {
		t.Fatalf("read above watermark: got err %v, want ErrReplicaLagging", rerr)
	}
	var lagErr *LagError
	if !errors.As(rerr, &lagErr) || lagErr.Need != future {
		t.Fatalf("lag error detail: %+v", rerr)
	}

	// Read-your-writes: write on the primary, capture E, read on the
	// follower at minEpoch E.
	if _, err := db.PutBytes([]byte("ryw"), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	e := db.CurrentEpoch()
	db.Checkpoint()
	if err := f.WaitWatermark(e, 10*time.Second); err != nil {
		t.Fatalf("WaitWatermark(%d): %v", e, err)
	}
	v, ok, rerr := f.GetBytes([]byte("ryw"), e)
	if rerr != nil || !ok || string(v) != "mine" {
		t.Fatalf("read-your-writes: v=%q ok=%v err=%v", v, ok, rerr)
	}
}

// TestFollowerReadsSurviveRebootstrap is the use-after-close regression
// (run under -race in CI): GetBytes and View pin the current bootstrap
// generation, so a reconnect swapping in a fresh store must not close
// the old one under an in-flight reader. The replication server is
// bounced repeatedly while reader goroutines hammer the follower.
func TestFollowerReadsSurviveRebootstrap(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	fillMatrix(t, db, 100, 1)
	if _, err := db.PutBytes([]byte("pinned"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.Checkpoint()

	lis := listenLoopback(t)
	addr := lis.Addr().String()
	srvOpts := ReplServerOptions{Heartbeat: 20 * time.Millisecond, DeadAfter: 5 * time.Second}
	rs, err := db.ServeReplication(lis, srvOpts)
	if err != nil {
		t.Fatalf("ServeReplication: %v", err)
	}
	f := followT(t, addr, FollowerOptions{
		ID:           "f1",
		DeadAfter:    200 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	defer f.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := []byte("pinned")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok, err := f.GetBytes(k, 0); err == nil && (!ok || string(v) != "v") {
					t.Errorf("pinned read: v=%q ok=%v", v, ok)
					return
				}
				f.View(func(db *DB) { db.GetBytes(k) })
			}
		}()
	}

	// Each bounce kills the session; the follower re-bootstraps into a
	// fresh store, retiring the previous generation under the readers.
	for i := 0; i < 3; i++ {
		rs.Close()
		var lis2 net.Listener
		waitCond(t, "listener rebind", func() bool {
			l, err := net.Listen("tcp", addr)
			if err != nil {
				return false
			}
			lis2 = l
			return true
		})
		// No bootstrap can complete while nothing serves, so the generation
		// sampled here is the pre-bounce one; Reconnects() counts session
		// ends (failed dials included) and may already have stopped moving.
		before := f.app.state().gen
		if rs, err = db.ServeReplication(lis2, srvOpts); err != nil {
			t.Fatalf("re-serve %d: %v", i, err)
		}
		if !f.app.waitUntil(15*time.Second, func() bool { return f.app.gen > before }) {
			t.Fatalf("bounce %d: follower never re-bootstrapped (generation %d)", i, before)
		}
	}
	close(stop)
	wg.Wait()
	rs.Close()

	if v, ok, err := f.GetBytes([]byte("pinned"), 0); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read after churn: v=%q ok=%v err=%v", v, ok, err)
	}
}

// TestCloseDeliversFinalEpoch is the shutdown-hardening regression (run
// under -race in CI): a primary with live networked followers and
// in-process change subscribers is closed — concurrently, twice — and
// every follower still receives the complete stream through the final
// shutdown epoch before its connection ends.
func TestCloseDeliversFinalEpoch(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	fillMatrix(t, db, 100, 7)
	db.Checkpoint()

	rs := serveRepl(t, db)
	f1 := followT(t, rs.Addr().String(), FollowerOptions{ID: "f1"})
	defer f1.Close()
	f2 := followT(t, rs.Addr().String(), FollowerOptions{ID: "f2"})
	defer f2.Close()

	// An in-process subscriber rides along; Close must not deadlock or
	// race against it.
	changes := db.Changes()
	subDone := make(chan uint64, 1)
	go func() {
		var last uint64
		for {
			b, err := changes.Next()
			if err != nil {
				subDone <- last
				return
			}
			last = b.Epoch
		}
	}()

	// Writes that commit only at Close's final shutdown checkpoint: the
	// followers can only see them if the final epoch is released before
	// the listener and peer connections are torn down.
	for i := 0; i < 30; i++ {
		if _, err := db.PutBytes([]byte(fmt.Sprintf("final-%02d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // concurrent + repeated Close: must be idempotent
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Close()
		}()
	}
	wg.Wait()
	db.Close() // and once more after the fact

	finalRel := db.ReleasedEpoch()
	select {
	case last := <-subDone:
		if last != finalRel {
			t.Fatalf("in-process subscriber drained to %d, want final %d", last, finalRel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-process subscriber never finished")
	}
	for _, f := range []*Follower{f1, f2} {
		if err := f.WaitWatermark(finalRel, 10*time.Second); err != nil {
			t.Fatalf("follower missed final epoch: %v (applied %d, want %d)", err, f.AppliedEpoch(), finalRel)
		}
		requireEqualDBs(t, db, f.DB())
	}
}

// TestPromoteFailover kills the primary, promotes a follower, and has
// the second follower plus the revived old primary resync to the new
// one, all byte-identical.
func TestPromoteFailover(t *testing.T) {
	db, _ := Open(Options{Shards: 2})
	fillMatrix(t, db, 150, 3)
	db.Checkpoint()

	rs := serveRepl(t, db)
	f1 := followT(t, rs.Addr().String(), FollowerOptions{ID: "f1"})
	f2 := followT(t, rs.Addr().String(), FollowerOptions{ID: "f2"})
	rel := db.ReleasedEpoch()
	for _, f := range []*Follower{f1, f2} {
		if err := f.WaitWatermark(rel, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Primary dies hard.
	db.SimulateCrash(0.5, 99)
	waitCond(t, "follower noticed the dead primary", func() bool {
		down, d := f1.Down()
		return down && d > 100*time.Millisecond
	})

	// Promote f1; it becomes the serving primary.
	np, err := f1.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer np.Close()
	if _, err := f1.Promote(); err == nil {
		t.Fatal("second Promote should fail")
	}
	nrs := serveRepl(t, np)
	if _, err := np.PutBytes([]byte("post-failover"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	np.Checkpoint()

	// The surviving follower re-points to the new primary (its old
	// session is dead; a fresh follow is the rejoin path).
	f2.Close()
	f2b := followT(t, nrs.Addr().String(), FollowerOptions{ID: "f2"})
	defer f2b.Close()

	// The old primary recovers and rejoins as a follower of the new one.
	old, _ := db.Reopen()
	oldF := followT(t, nrs.Addr().String(), FollowerOptions{ID: "old-primary"})
	old.Close() // rejoin is a fresh bootstrap; the recovered store retires

	nrel := np.ReleasedEpoch()
	for _, f := range []*Follower{f2b, oldF} {
		if err := f.WaitWatermark(nrel, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		requireEqualDBs(t, np, f.DB())
	}
	if v, ok, err := oldF.GetBytes([]byte("post-failover"), nrel); err != nil || !ok || string(v) != "new" {
		t.Fatalf("rejoined old primary missing post-failover write: %q %v %v", v, ok, err)
	}
	oldF.Close()
	f2b.Close()
}

// TestServeReplicationOnClosedDB fails fast instead of serving a dead
// store.
func TestServeReplicationOnClosedDB(t *testing.T) {
	db, _ := Open(Options{})
	db.Close()
	if _, err := db.ServeReplication(listenLoopback(t), ReplServerOptions{}); err == nil {
		t.Fatal("ServeReplication on closed DB should fail")
	}
}
