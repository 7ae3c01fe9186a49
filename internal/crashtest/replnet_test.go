package crashtest

// Networked replication crash campaign: a TCP primary with two live
// followers under concurrent write load, killed at every streaming-
// protocol point, with connections dropped and partitioned mid-batch.
// The invariants extend the in-process campaign's (see repl.go) across
// the wire:
//
//  1. Prefix exactness. After any crash, cut, or partition, every
//     follower's store equals the primary's committed state at the
//     follower's applied watermark, exactly — a torn connection or a
//     truncated bootstrap never leaves a follower between epochs.
//
//  2. Failover convergence. Promoting a follower yields a serving
//     primary; the surviving follower and the recovered old primary
//     rejoin it (each a fresh bootstrap — the journal cannot replay the
//     past) and converge byte-identical in both iteration directions.
//
// The committed reference states come from the same verifier
// subscription repl.go uses: it reconstructs the exact committed state
// at every released epoch, so "exact at watermark E" is checked against
// ground truth, not against the primary's possibly-further state.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incll"
	"incll/internal/crashpoint"
)

// TestRunReplnet runs the networked crash/failover campaign: every
// snapshot protocol point gets a round in which a bootstrap is killed
// there, the primary is crashed mid-stream with two live followers, one
// follower is promoted, and the survivors resync byte-identical.
func TestRunReplnet(t *testing.T) {
	cfg := ReplConfig{PersistFraction: 0.5}
	if testing.Short() {
		cfg = ReplConfig{Rounds: 2, KeysPerWorker: 120, OpsPerBurst: 150, PersistFraction: 0.5}
	}
	seed := time.Now().UnixNano()
	t.Logf("replnet campaign seed %d", seed)
	if err := runReplnet(cfg, seed); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplnetPartition severs every replication connection mid-batch,
// repeatedly, under load: each cut forces a full re-bootstrap and the
// followers must land back on exact committed prefixes.
func TestRunReplnetPartition(t *testing.T) {
	cfg := ReplConfig{Rounds: 4}
	if testing.Short() {
		cfg.Rounds = 2
	}
	seed := time.Now().UnixNano()
	t.Logf("replnet partition seed %d", seed)
	if err := runReplnetPartition(cfg, seed); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplnetShardMismatch re-runs a short campaign with follower
// shard counts different from the primary's — the wire stream routes by
// key, so topology never has to match across the cluster.
func TestRunReplnetShardMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestRunReplnet in short mode")
	}
	seed := time.Now().UnixNano()
	t.Logf("replnet shard-mismatch seed %d", seed)
	if err := runReplnet(ReplConfig{
		Shards:          3,
		FollowerShards:  1,
		Rounds:          2,
		KeysPerWorker:   150,
		OpsPerBurst:     200,
		PersistFraction: 0.5,
	}, seed); err != nil {
		t.Fatal(err)
	}
}

// replnetDefaults are the networked campaigns' defaults for the fields
// that differ between campaigns.
var replnetDefaults = ReplConfig{Shards: 2, KeysPerWorker: 300, OpsPerBurst: 400}

// chaosListener wraps a listener so the campaign can sever every live
// connection on demand — the wire-level stand-in for a network
// partition or a dropped TCP session, injectable mid-batch because the
// cut happens while the stream goroutines are writing.
type chaosListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	cuts  atomic.Int64
}

func newChaosListener(l net.Listener) *chaosListener {
	return &chaosListener{Listener: l, conns: make(map[net.Conn]struct{})}
}

func (cl *chaosListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &chaosConn{Conn: c, cl: cl}
	cl.mu.Lock()
	cl.conns[cc] = struct{}{}
	cl.mu.Unlock()
	return cc, nil
}

// cutAll severs every live connection (both directions, no FIN
// ordering — the kernel's RST is the point).
func (cl *chaosListener) cutAll() int {
	cl.mu.Lock()
	conns := make([]net.Conn, 0, len(cl.conns))
	for c := range cl.conns {
		conns = append(conns, c)
	}
	cl.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	cl.cuts.Add(int64(len(conns)))
	return len(conns)
}

type chaosConn struct {
	net.Conn
	cl   *chaosListener
	once sync.Once
}

func (c *chaosConn) Close() error {
	c.once.Do(func() {
		c.cl.mu.Lock()
		delete(c.cl.conns, c)
		c.cl.mu.Unlock()
	})
	return c.Conn.Close()
}

// serveNet serves db's replication stream on a fresh loopback listener
// behind a chaosListener.
func serveNet(db *incll.DB) (*incll.ReplServer, *chaosListener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cl := newChaosListener(lis)
	rs, err := serveRepl(db, cl)
	if err != nil {
		lis.Close()
		return nil, nil, err
	}
	return rs, cl, nil
}

// runReplnet executes one networked replication crash campaign. Each
// round: two live followers converge over TCP under load; a transient
// third follower's bootstrap is killed at the round's snapshot protocol
// point (the truncated stream must never restore — the client retries
// into a clean bootstrap); the primary is then crashed mid-load, both
// followers are checked to be exact committed prefixes, one is promoted,
// and the survivor plus the recovered old primary rejoin the new
// primary and must converge byte-identical in both directions.
func runReplnet(cfg ReplConfig, seed int64) (err error) {
	cfg = cfg.withDefaults(replnetDefaults)
	primary, _ := incll.Open(incll.Options{Shards: cfg.Shards, Workers: cfg.Workers + 1})
	defer func() { err = dumpTraceOnFailure("replnet", seed, primary.DumpTrace, err) }()

	ver := newVerifier(primary, model{})

	for round := 0; round < cfg.Rounds; round++ {
		point := snapPoints[round%len(snapPoints)]

		rs, _, err := serveNet(primary)
		if err != nil {
			return fmt.Errorf("round %d: serve: %w", round, err)
		}
		addr := rs.Addr().String()
		f1, err := followNet(addr, cfg, "f1")
		if err != nil {
			return fmt.Errorf("round %d: follow f1: %w", round, err)
		}
		f2, err := followNet(addr, cfg, "f2")
		if err != nil {
			return fmt.Errorf("round %d: follow f2: %w", round, err)
		}

		// Committed prelude under live streaming.
		for e := 0; e < 2; e++ {
			burst(primary, cfg, seed, round*10+e)
			primary.Checkpoint()
			if err := ver.drainReleased(); err != nil {
				return fmt.Errorf("round %d: verifier: %w", round, err)
			}
		}
		rel := primary.ReleasedEpoch()
		if err := waitWatermarks(rel, f1, f2); err != nil {
			return fmt.Errorf("round %d: converge: %w", round, err)
		}
		for i, f := range []*incll.Follower{f1, f2} {
			if err := EqualBothDirections(primary, f.DB()); err != nil {
				return fmt.Errorf("round %d: follower %d diverges at quiesced boundary: %w", round, i+1, err)
			}
		}

		// Kill a bootstrap at this round's snapshot protocol point: the
		// transient follower's first attempt dies there (over the wire the
		// stream just ends — the follower's Restore must reject it), and
		// the retry bootstraps clean. FollowPrimary only returns once a
		// bootstrap succeeded, so reaching here with hits>0 proves the
		// truncated attempt was retried, not restored.
		if point != "" {
			var hits atomic.Int64
			crashpoint.Set(primary, func(p string) error {
				if p == point && hits.Add(1) == 1 {
					return errAbort
				}
				return nil
			})
			f3, err := followNet(addr, cfg, "f3")
			crashpoint.Set(primary, nil)
			if err != nil {
				return fmt.Errorf("round %d: follow through aborted bootstrap at %q: %w", round, point, err)
			}
			if hits.Load() == 0 {
				// The point may be unreachable (e.g. no change frame with no
				// concurrent writes); only then is a first-try success fine.
				if point != "changes-frame" {
					return fmt.Errorf("round %d: snapshot hook at %q never fired", round, point)
				}
			} else if f3.Reconnects() == 0 {
				return fmt.Errorf("round %d: bootstrap aborted at %q but the follower never retried", round, point)
			}
			if err := f3.WaitWatermark(primary.ReleasedEpoch(), 30*time.Second); err != nil {
				return fmt.Errorf("round %d: f3 converge: %w", round, err)
			}
			if err := EqualBothDirections(primary, f3.DB()); err != nil {
				return fmt.Errorf("round %d: f3 diverges after retried bootstrap: %w", round, err)
			}
			f3.Close()
		}

		// Doomed phase: concurrent load with periodic checkpoints, then a
		// hard crash mid-stream.
		stopLoad := startLoad(primary, cfg, cfg.Workers, seed, int64(round*77+13), 200)
		time.Sleep(10 * time.Millisecond) // let some doomed epochs release and stream
		stopLoad()
		primary.SimulateCrash(cfg.PersistFraction, seed+int64(round))
		ver.drainUntilLost()

		// Invariant 1: both followers stopped on exact committed prefixes.
		for i, f := range []*incll.Follower{f1, f2} {
			if err := waitDown(f); err != nil {
				return fmt.Errorf("round %d: follower %d: %w", round, i+1, err)
			}
			if err := checkExactPrefix(f, ver, fmt.Sprintf("follower %d", i+1)); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}

		// Failover: promote f1, serve from it, write through it.
		np, err := f1.Promote()
		if err != nil {
			return fmt.Errorf("round %d: promote: %w", round, err)
		}
		nrs, _, err := serveNet(np)
		if err != nil {
			return fmt.Errorf("round %d: serve promoted: %w", round, err)
		}
		np.Handle(0).Put([]byte(fmt.Sprintf("post-failover/%03d", round)), uint64(round))
		np.Checkpoint()

		// The survivor and the recovered old primary rejoin the new
		// primary — each a fresh bootstrap; the old primary's released-
		// but-undelivered suffix is discarded with its store (the
		// asynchronous-failover contract).
		f2.Close()
		f2b, err := followNet(nrs.Addr().String(), cfg, "f2")
		if err != nil {
			return fmt.Errorf("round %d: rejoin f2: %w", round, err)
		}
		oldDB, _ := primary.Reopen()
		oldF, err := followNet(nrs.Addr().String(), cfg, "old-primary")
		if err != nil {
			return fmt.Errorf("round %d: rejoin old primary: %w", round, err)
		}
		oldDB.Close()

		// Invariant 2: full convergence, byte-identical both directions,
		// in both rejoin directions (old follower of new primary, old
		// primary as follower).
		nrel := np.ReleasedEpoch()
		if err := waitWatermarks(nrel, f2b, oldF); err != nil {
			return fmt.Errorf("round %d: rejoin converge: %w", round, err)
		}
		if err := EqualBothDirections(np, f2b.DB()); err != nil {
			return fmt.Errorf("round %d: survivor diverges after failover: %w", round, err)
		}
		if err := EqualBothDirections(np, oldF.DB()); err != nil {
			return fmt.Errorf("round %d: rejoined old primary diverges: %w", round, err)
		}
		f2b.Close()
		oldF.Close()

		// Next round runs on the promoted primary, verifier rebased on its
		// committed state.
		primary = np
		ver = newVerifier(primary, dbState(primary))
	}
	primary.Close()
	return nil
}

// runReplnetPartition exercises connection drops and partitions: a
// primary under continuous load with two followers whose connections
// are severed mid-batch, repeatedly — each cut lands while stream
// goroutines are writing, so frames tear at arbitrary byte boundaries.
// After every cut the followers must re-bootstrap and, at the next
// quiesced boundary, again hold exact committed prefixes; at the end
// everything converges byte-identical.
func runReplnetPartition(cfg ReplConfig, seed int64) (err error) {
	cfg = cfg.withDefaults(replnetDefaults)
	primary, _ := incll.Open(incll.Options{Shards: cfg.Shards, Workers: cfg.Workers + 1})
	defer func() { err = dumpTraceOnFailure("replnet-partition", seed, primary.DumpTrace, err) }()

	ver := newVerifier(primary, model{})
	rs, cl, err := serveNet(primary)
	if err != nil {
		return err
	}
	addr := rs.Addr().String()
	f1, err := followNet(addr, cfg, "f1")
	if err != nil {
		return err
	}
	defer f1.Close()
	f2, err := followNet(addr, cfg, "f2")
	if err != nil {
		return err
	}
	defer f2.Close()

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < cfg.Rounds; round++ {
		// Load with periodic checkpoints (its own rng: the outer one times
		// the cuts), and a partition injected while batches are on the wire.
		stopLoad := startLoad(primary, cfg, 0, seed, int64(round*131+7), 100)
		time.Sleep(time.Duration(2+rng.Intn(10)) * time.Millisecond)
		cl.cutAll() // partition: every live replication conn torn mid-stream
		time.Sleep(time.Duration(2+rng.Intn(10)) * time.Millisecond)
		stopLoad()

		// Quiesce and let both followers recover (a full re-bootstrap
		// each — the journal cannot replay the lost window).
		primary.Checkpoint()
		rel := primary.ReleasedEpoch()
		if err := waitWatermarks(rel, f1, f2); err != nil {
			return fmt.Errorf("round %d: recovery after cut: %w", round, err)
		}
		// Drain only once both followers are back: each re-bootstrap's
		// snapshot anchors a fresh checkpoint, so the released horizon —
		// and a follower's applied watermark — can move past any earlier
		// drain point.
		if err := ver.drainReleased(); err != nil {
			return fmt.Errorf("round %d: verifier: %w", round, err)
		}
		for i, f := range []*incll.Follower{f1, f2} {
			if err := checkExactPrefix(f, ver, fmt.Sprintf("follower %d", i+1)); err != nil {
				return fmt.Errorf("round %d (after %d cuts): %w", round, cl.cuts.Load(), err)
			}
			if err := EqualBothDirections(primary, f.DB()); err != nil {
				return fmt.Errorf("round %d: follower %d diverges after partition: %w", round, i+1, err)
			}
		}
	}
	if cl.cuts.Load() == 0 {
		return errors.New("partition campaign cut no connections (injection broken)")
	}
	primary.Close()
	return nil
}
