package crashtest

// Replication crash campaign: run a primary under concurrent write load
// with a live loopback follower (the primary's own ServeReplication,
// followed from the same process), crash the primary at every
// snapshot/stream protocol point, and check the subsystem's two
// invariants:
//
//  1. Prefix exactness. At every moment — in particular right after the
//     primary crashes mid-stream — the follower's state equals the
//     primary's committed state at the follower's applied epoch, exactly.
//     A snapshot stream truncated by the crash must fail Restore
//     (ErrBadStream), never produce a silently wrong DB.
//
//  2. Convergence. After the primary recovers and the follower resyncs
//     to it, All() iteration over primary and follower is byte-identical
//     in both directions, and again after the follower is promoted.
//
// The committed reference states are reconstructed from an independent
// verifier subscription opened before any write: applying its entries
// epoch by epoch reproduces the exact committed state at every released
// epoch (the stream is the serialization the hub's release barrier
// defines), and the final quiesced boundary is cross-checked against the
// primary itself so the verifier cannot drift.

import (
	"bytes"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incll"
	"incll/internal/crashpoint"
	"incll/internal/epoch"
)

// ReplConfig parameterizes one replication crash campaign: RunRepl, or
// the networked campaigns of replnet_test.go. Zero fields take the
// campaign's defaults.
type ReplConfig struct {
	// Shards is the primary's shard count; FollowerShards the followers'
	// (0 = same — restores route by key, so they need not match).
	Shards         int
	FollowerShards int
	// Workers is the number of concurrent writer goroutines (disjoint key
	// ranges, so reference states are well-defined).
	Workers int
	// KeysPerWorker is each writer's key-range size.
	KeysPerWorker int
	// OpsPerBurst is the number of operations each writer runs per burst
	// (bursts run concurrently with exports and between checkpoints).
	OpsPerBurst int
	// Rounds is the number of crash/recover cycles; each round injects a
	// crash at the next snapshot protocol point, cycling through all of
	// them.
	Rounds int
	// PersistFraction is the probability a dirty line survives each crash
	// (0: none survives).
	PersistFraction float64
}

// replDefaults are RunRepl's defaults for the fields that differ between
// campaigns (replnet_test.go holds the networked campaigns' own).
var replDefaults = ReplConfig{Shards: 1, KeysPerWorker: 400, OpsPerBurst: 500}

// withDefaults fills c's zero fields from def and the shared defaults.
func (c ReplConfig) withDefaults(def ReplConfig) ReplConfig {
	if c.Shards <= 0 {
		c.Shards = def.Shards
	}
	if c.FollowerShards <= 0 {
		c.FollowerShards = c.Shards
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.KeysPerWorker <= 0 {
		c.KeysPerWorker = def.KeysPerWorker
	}
	if c.OpsPerBurst <= 0 {
		c.OpsPerBurst = def.OpsPerBurst
	}
	if c.Rounds <= 0 {
		c.Rounds = len(snapPoints)
	}
	return c
}

// snapPoints are the snapshot protocol points the campaign crashes at, in
// rotation ("" is a mid-stream crash with no export in flight).
var snapPoints = []string{"header", "kv-frame", "scan-done", "anchor", "changes-frame", "end", ""}

// errAbort is the sentinel the snapshot hook uses to stop the export at
// the chosen protocol point (standing in for the process dying there).
var errAbort = errors.New("crashtest: export aborted at injection point")

// verifier reconstructs the committed state at every released epoch from
// a change-stream subscription.
type verifier struct {
	sub    *incll.ChangeStream
	state  model            // state at epoch `upTo`
	states map[uint64]model // exact state per released epoch
	upTo   uint64           // highest epoch reconstructed
}

func newVerifier(db *incll.DB, base model) *verifier {
	sub := db.Changes()
	baseEpoch := sub.Released()
	return &verifier{
		sub:    sub,
		state:  maps.Clone(base),
		states: map[uint64]model{baseEpoch: maps.Clone(base)},
		upTo:   baseEpoch,
	}
}

// absorb applies one batch, snapshotting the state at every epoch the
// batch covers (entries are epoch-monotone; epochs with no entries share
// the predecessor's state).
func (v *verifier) absorb(b incll.ChangeBatch) {
	i := 0
	for e := v.upTo + 1; e <= b.Epoch; e++ {
		for i < len(b.Changes) && b.Changes[i].Epoch <= e {
			c := b.Changes[i]
			if c.Op == incll.ChangeDelete {
				delete(v.state, string(c.Key))
			} else {
				v.state[string(c.Key)] = string(c.Value)
			}
			i++
		}
		v.states[e] = maps.Clone(v.state)
	}
	v.upTo = b.Epoch
}

// drainReleased absorbs every batch the stream has already released,
// without blocking for more.
func (v *verifier) drainReleased() error {
	for v.upTo < v.sub.Released() {
		b, err := v.sub.Next()
		if err != nil {
			return err
		}
		v.absorb(b)
	}
	return nil
}

// drainUntilLost absorbs batches until the stream reports the crash.
func (v *verifier) drainUntilLost() {
	for {
		b, err := v.sub.Next()
		if err != nil {
			return
		}
		v.absorb(b)
	}
}

// at returns the exact committed state at epoch e, if the verifier saw
// that epoch released.
func (v *verifier) at(e uint64) (model, bool) {
	m, ok := v.states[e]
	return m, ok
}

// dbState reads a DB's full contents through the merge cursor.
func dbState(db *incll.DB) model {
	m := model{}
	for k, val := range db.All() {
		m[string(k)] = string(val)
	}
	return m
}

// replKey is writer w's key number kn. The padded tail varies key
// lengths, so the keys span several tree layers.
func replKey(w, kn int) []byte {
	return fmt.Appendf(nil, "w%02d/key/%05d/%s", w, kn, strings.Repeat("p", kn%11))
}

// burst has every writer run cfg.OpsPerBurst operations on its own keys
// of db: mostly small values, some heap-resident ones, some deletes.
func burst(db *incll.DB, cfg ReplConfig, seed int64, r int) {
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(r*1000+w)))
			h := db.Handle(w)
			for i := 0; i < cfg.OpsPerBurst; i++ {
				kn := rng.Intn(cfg.KeysPerWorker)
				key := replKey(w, kn)
				switch rng.Intn(10) {
				case 0:
					h.Delete(key)
				case 1: // heap-resident value
					v := bytes.Repeat([]byte{byte(kn), byte(i)}, 16+rng.Intn(128))
					if _, err := h.PutBytes(key, v); err != nil {
						panic(err)
					}
				default: // mostly small/inline values
					h.Put(key, uint64(rng.Intn(1<<30)))
				}
			}
		}(w)
	}
	wg.Wait()
}

// startLoad runs a background writer on db's handle w, putting to every
// writer's keys and checkpointing after every ckptEvery puts (0: never),
// until the returned stop is called; stop returns once the writer has.
func startLoad(db *incll.DB, cfg ReplConfig, w int, seed, tag int64, ckptEvery int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed ^ tag))
		h := db.Handle(w)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			h.Put(replKey(i%cfg.Workers, rng.Intn(cfg.KeysPerWorker)), uint64(i)|1<<33)
			if ckptEvery > 0 && i%ckptEvery == ckptEvery-1 {
				db.Checkpoint()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// EqualBothDirections checks byte-identical All() iteration forward and
// reverse across two DBs — the acceptance property's equality check,
// shared with cmd/incll-repl's verification modes.
func EqualBothDirections(a, b *incll.DB) error {
	for _, rev := range []bool{false, true} {
		if err := equalIter(a, b, incll.IterOptions{Reverse: rev}); err != nil {
			return fmt.Errorf("reverse=%v: %w", rev, err)
		}
	}
	return nil
}

// equalIter walks a and b in lockstep under o.
func equalIter(a, b *incll.DB, o incll.IterOptions) error {
	next, stop := iter.Pull2(b.Iter(o))
	defer stop()
	n := 0
	for ak, av := range a.Iter(o) {
		bk, bv, ok := next()
		if !ok {
			return fmt.Errorf("iteration lengths diverge after %d entries", n)
		}
		if !bytes.Equal(ak, bk) || !bytes.Equal(av, bv) {
			return fmt.Errorf("entry %d: (%q,%q) vs (%q,%q)", n, ak, av, bk, bv)
		}
		n++
	}
	if _, _, ok := next(); ok {
		return fmt.Errorf("iteration lengths diverge after %d entries", n)
	}
	return nil
}

// RunRepl executes one replication crash campaign with the given seed,
// returning the number of crash rounds it ran (cfg.Rounds, or by default
// one per snapshot protocol point and a clean round) and an error
// describing the first invariant violation. As with
// Run, a failure dumps the primary's phase trace when INCLL_TRACE_DIR is
// set; the DB façade's tracer survives crash/reopen cycles, so the dump
// covers the whole campaign even when the handle was swapped.
func RunRepl(cfg ReplConfig, seed int64) (rounds int, err error) {
	cfg = cfg.withDefaults(replDefaults)
	return cfg.Rounds, runRepl(cfg, seed)
}

// runRepl is RunRepl's campaign on a configuration with its defaults set.
func runRepl(cfg ReplConfig, seed int64) (err error) {
	primary, _ := incll.Open(incll.Options{Shards: cfg.Shards, Workers: cfg.Workers + 1})
	defer func() { err = dumpTraceOnFailure("repl", seed, primary.DumpTrace, err) }()

	// The verifier subscribes before any write, so its reconstruction
	// starts from the empty committed state.
	ver := newVerifier(primary, model{})

	fol, err := followLoopback(primary, cfg)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	defer func() { fol.Close() }() // the follower is replaced at each resync

	for round := 0; round < cfg.Rounds; round++ {
		point := snapPoints[round%len(snapPoints)]

		// Committed prelude: a couple of quiesced checkpoints.
		for e := 0; e < 2; e++ {
			burst(primary, cfg, seed, round*10+e)
			primary.Checkpoint()
			if err := ver.drainReleased(); err != nil {
				return fmt.Errorf("round %d: verifier: %w", round, err)
			}
		}

		// Cross-check the verifier against ground truth at this quiesced
		// boundary: the reconstruction must equal the primary exactly.
		if err := verify(primary, ver.state); err != nil {
			return fmt.Errorf("round %d: verifier drifted from the primary: %w", round, err)
		}

		// Doomed phase: concurrent burst, export aborted at the protocol
		// point, then the crash. The uncommitted burst tail must vanish;
		// the truncated stream must never restore.
		var exportBuf bytes.Buffer
		stopLoad := startLoad(primary, cfg, cfg.Workers, seed, int64(round*77+13), 0)

		var exportErr error
		if point != "" {
			// Atomic: a follower re-bootstrapping now would run the hook
			// on the server's goroutine.
			var hits atomic.Int64
			crashpoint.Set(primary, func(p string) error {
				if p == point && hits.Add(1) == 1 {
					return errAbort
				}
				return nil
			})
			_, exportErr = primary.Snapshot(&exportBuf)
			crashpoint.Set(primary, nil)
			if !errors.Is(exportErr, errAbort) {
				// The point may be unreachable this round (e.g. no change
				// frame when the doomed writer raced slow): only a clean
				// success is acceptable then.
				if exportErr != nil {
					return fmt.Errorf("round %d: export at %q: %v", round, point, exportErr)
				}
			}
		}
		stopLoad()

		// Crash the primary mid-stream.
		primary.SimulateCrash(cfg.PersistFraction, seed+int64(round))

		// The truncated export must never restore silently.
		if point != "" && errors.Is(exportErr, errAbort) && exportBuf.Len() > 0 {
			if _, _, rerr := incll.Restore(bytes.NewReader(exportBuf.Bytes()), incll.Options{Shards: cfg.FollowerShards}); !errors.Is(rerr, incll.ErrBadStream) {
				return fmt.Errorf("round %d: truncated export (at %q) restored with err=%v, want ErrBadStream", round, point, rerr)
			}
		}

		// The verifier drains what was released before the crash, then
		// loses the stream.
		ver.drainUntilLost()

		// Invariant 1: the follower stopped on an exact committed prefix.
		if err := waitDown(fol); err != nil {
			return fmt.Errorf("round %d: follower did not observe the crash: %w", round, err)
		}
		if err := checkExactPrefix(fol, ver, "follower"); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}

		// Recover the primary and resync: a fresh follower of the reopened
		// primary (the crash took the old one's change journal with it).
		reopened, info := primary.Reopen()
		if info.Status == epoch.FreshStart {
			return fmt.Errorf("round %d: reopen lost the arena", round)
		}
		primary = reopened
		fol.Close()
		next, err := followLoopback(primary, cfg)
		if err != nil {
			return fmt.Errorf("round %d: resync: %w", round, err)
		}
		fol = next
		if err := waitWatermarks(primary.ReleasedEpoch(), fol); err != nil {
			return fmt.Errorf("round %d: catch-up: %w", round, err)
		}

		// Invariant 2: full convergence, byte-identical both directions.
		if err := EqualBothDirections(primary, fol.DB()); err != nil {
			return fmt.Errorf("round %d: primary/follower diverge after catch-up: %w", round, err)
		}

		// Rebase the verifier on the recovered committed state.
		ver = newVerifier(primary, dbState(primary))
	}

	// Final: the follower drains everything and is promoted.
	burst(primary, cfg, seed, cfg.Rounds*10+1)
	primary.Checkpoint()
	if err := waitWatermarks(primary.ReleasedEpoch(), fol); err != nil {
		return fmt.Errorf("final catch-up: %w", err)
	}
	if err := EqualBothDirections(primary, fol.DB()); err != nil {
		return fmt.Errorf("final equality: %w", err)
	}
	promoted, err := fol.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if err := EqualBothDirections(primary, promoted); err != nil {
		return fmt.Errorf("promoted equality: %w", err)
	}
	promoted.Close()
	primary.Close()
	return nil
}

// followLoopback serves db's replication stream on loopback and follows
// it from this process: the in-process replica.
func followLoopback(db *incll.DB, cfg ReplConfig) (*incll.Follower, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rs, err := serveRepl(db, lis)
	if err != nil {
		lis.Close()
		return nil, err
	}
	return followNet(rs.Addr().String(), cfg, "replica")
}

// serveRepl serves db's replication stream on lis.
func serveRepl(db *incll.DB, lis net.Listener) (*incll.ReplServer, error) {
	return db.ServeReplication(lis, incll.ReplServerOptions{
		Heartbeat: 20 * time.Millisecond,
		DeadAfter: 10 * time.Second, // the networked campaigns cut conns themselves; no spurious deadline kills
	})
}

// followNet starts a follower of addr with campaign-friendly timeouts.
// The follower opens with the full worker count: a promoted follower
// becomes the next round's primary and must serve every load handle.
func followNet(addr string, cfg ReplConfig, id string) (*incll.Follower, error) {
	return incll.FollowPrimary(addr, incll.FollowerOptions{
		Options:      incll.Options{Shards: cfg.FollowerShards, Workers: cfg.Workers + 1},
		ID:           id,
		DeadAfter:    500 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
		ReadyTimeout: 30 * time.Second,
	})
}

// waitWatermarks blocks until every follower applied at least epoch e.
func waitWatermarks(e uint64, fs ...*incll.Follower) error {
	for _, f := range fs {
		if err := f.WaitWatermark(e, 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// waitDown blocks until the follower has noticed its primary is gone.
func waitDown(f *incll.Follower) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if down, _ := f.Down(); down && !f.Connected() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("follower never observed the dead primary")
}

// checkExactPrefix verifies a quiesced follower holds the exact
// committed state at its applied watermark.
func checkExactPrefix(f *incll.Follower, ver *verifier, who string) error {
	applied := f.AppliedEpoch()
	want, ok := ver.at(applied)
	if !ok {
		return fmt.Errorf("%s applied epoch %d, which the verifier never saw (base..%d)", who, applied, ver.upTo)
	}
	if err := verify(f.DB(), want); err != nil {
		return fmt.Errorf("%s is not the exact committed state at epoch %d: %w", who, applied, err)
	}
	return nil
}
