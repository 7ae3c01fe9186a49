package incll

// Online elastic resharding: repartition a live DB's keyspace across a
// new shard count without stopping reads, writes, or transactions.
//
// The protocol composes machinery this codebase already trusts:
//
//  1. Build: open a fresh target shard set at topology version V+1, sized
//     from the original Options with the new shard count.
//  2. Snapshot copy: bootstrap the applier (applier.go) from the donor
//     itself — a pinned change subscription, then an online snapshot
//     restored into the target, exact at an anchor epoch, concurrent with
//     writers.
//  3. Tail: the applier lands the released change stream in the target
//     until it has caught up with the donor's committed horizon.
//  4. Cutover: under the transaction manager's exclusive commit guard,
//     gate new writers, drain in-flight ones, run the donor's final
//     checkpoint, drain the stream to that final horizon, commit the
//     target, and then durably commit the topology manifest — the single
//     PCSO-atomic commit point. Everything before it crashes back to the
//     donor; everything after recovers onto the target.
//
// A cutover pauses writers for the duration of one epoch advance plus the
// final tail drain (measured and reported as ReshardResult.CutoverPause);
// reads never block except for the pointer-swap instant. See DESIGN.md
// §13 for the full crash decision table.

import (
	"fmt"
	"time"

	"sync/atomic"

	"incll/internal/obs"
	"incll/internal/repl"
	"incll/internal/shard"
	"incll/internal/txn"
)

// Reshard phases, as exposed by ReshardProgress and the
// incll_reshard_phase gauge.
const (
	reshardIdle     = 0
	reshardSnapshot = 1
	reshardTail     = 2
	reshardCutover  = 3
)

// reshardState is the live progress of the current (or last) reshard,
// readable concurrently by ReshardProgress and the metrics registry.
type reshardState struct {
	phase       atomic.Int64 // reshardIdle/Snapshot/Tail/Cutover
	from, to    atomic.Int64
	copiedKeys  atomic.Int64 // keys restored by the snapshot copy
	copiedBytes atomic.Int64 // key+value bytes restored by the snapshot copy
	tailed      atomic.Int64 // change entries applied by the tail
	lagEpochs   atomic.Int64 // released epochs the tail still trails by
	cutovers    atomic.Int64 // durably committed cutovers on this DB
	lastPauseNS atomic.Int64 // last cutover's writer-visible pause
}

// ReshardProgress is a point-in-time snapshot of a running (or the most
// recent) reshard.
type ReshardProgress struct {
	// Active reports whether a reshard is in flight.
	Active bool
	// Phase is "idle", "snapshot", "tail", or "cutover".
	Phase string
	// From and To are the donor and target shard counts (zero when no
	// reshard has run).
	From, To int
	// CopiedKeys and CopiedBytes count the snapshot copy into the target.
	CopiedKeys, CopiedBytes int64
	// TailedChanges counts change-stream entries applied by the tail.
	TailedChanges int64
	// LagEpochs is how many released epochs the tail still trails by.
	LagEpochs int64
	// Cutovers counts durably committed reshards on this DB instance.
	Cutovers int64
}

// ReshardResult summarizes one completed reshard.
type ReshardResult struct {
	// From and To are the donor and target shard counts.
	From, To int
	// TopoVersion is the new live topology version.
	TopoVersion uint64
	// CopiedKeys and CopiedBytes count the snapshot copy.
	CopiedKeys, CopiedBytes int64
	// TailedChanges counts change-stream entries the tail applied on top
	// of the snapshot.
	TailedChanges int64
	// CutoverPause is how long the cutover gated writers: the only window
	// in which the reshard is visible to the workload as added latency.
	CutoverPause time.Duration
	// Took is the end-to-end duration, copy included.
	Took time.Duration
}

// ReshardProgress reports the live state of the current (or last)
// reshard; safe to call concurrently with Reshard.
func (db *DB) ReshardProgress() ReshardProgress {
	s := &db.rstate
	p := ReshardProgress{
		From:          int(s.from.Load()),
		To:            int(s.to.Load()),
		CopiedKeys:    s.copiedKeys.Load(),
		CopiedBytes:   s.copiedBytes.Load(),
		TailedChanges: s.tailed.Load(),
		LagEpochs:     s.lagEpochs.Load(),
		Cutovers:      s.cutovers.Load(),
	}
	switch s.phase.Load() {
	case reshardSnapshot:
		p.Active, p.Phase = true, "snapshot"
	case reshardTail:
		p.Active, p.Phase = true, "tail"
	case reshardCutover:
		p.Active, p.Phase = true, "cutover"
	default:
		p.Phase = "idle"
	}
	return p
}

// SetReshardHook installs the reshard crash-injection hook, fired at
// every protocol point; a non-nil return aborts (or, after the manifest
// commit, merely reports). Never use outside tests (see
// internal/crashtest).
func (db *DB) SetReshardHook(h func(point string) error) { db.reshardHook = h }

// fireReshard fires the crash-injection hook at a protocol point.
func (db *DB) fireReshard(point string) error {
	if db.reshardHook == nil {
		return nil
	}
	return db.reshardHook(point)
}

// reshardTarget lands the donor's snapshot and change stream in the next
// topology, keeping ReshardProgress current: puts during the snapshot
// phase are the copy, later ones are the tail, counted per released batch
// together with the "tail-batch" protocol point.
func (db *DB) reshardTarget(target *shard.Store, app *applier) applyTarget {
	s := &db.rstate
	h := target.Handle(0)
	return applyTarget{
		Target: repl.Target{
			Put: func(k, v []byte) error {
				h.PutBytes(k, v)
				if s.phase.Load() == reshardSnapshot {
					s.copiedKeys.Add(1)
					s.copiedBytes.Add(int64(len(k) + len(v)))
				}
				return nil
			},
			Delete: func(k []byte) error {
				h.Delete(k)
				return nil
			},
			Checkpoint: func() { target.Advance() },
		},
		batchDone: func(epoch uint64, took time.Duration, n int, _ uint64) error {
			s.tailed.Add(int64(n))
			s.lagEpochs.Store(int64(app.state().behind(app.feed.Released())))
			db.trace.Record(obs.EvReshardTail, -1, epoch, took, int64(n))
			return db.fireReshard("tail-batch")
		},
	}
}

// Reshard repartitions the DB's keyspace across newShards shards, online:
// reads, writes, and transactions keep running throughout; writers are
// gated only for the cutover pause. On success the DB serves the new
// topology (TopoVersion is incremented, durably) and the donor shard set
// is retired; existing Handle values and the background checkpointer
// carry over. Change-stream subscribers are cut with ErrStreamLost at the
// cutover (exactly as after a primary crash) and should re-bootstrap;
// iterators opened before the cutover keep reading the donor's frozen
// final checkpoint.
//
// On error before the cutover commit, the DB is untouched (still on the
// donor topology) and the partially built target is discarded. An error
// wrapping a post-commit hook failure reports a COMPLETED reshard.
func (db *DB) Reshard(newShards int) (ReshardResult, error) {
	if newShards < 1 {
		return ReshardResult{}, fmt.Errorf("incll: Reshard(%d): shard count must be at least 1", newShards)
	}
	if err := (Options{Shards: newShards}).Validate(); err != nil {
		return ReshardResult{}, err
	}
	db.reshardMu.Lock()
	defer db.reshardMu.Unlock()

	donor := db.engine()
	if newShards == donor.topo.Shards {
		return ReshardResult{}, fmt.Errorf("incll: Reshard(%d): already %d shards", newShards, newShards)
	}

	start := time.Now()
	s := &db.rstate
	s.from.Store(int64(donor.topo.Shards))
	s.to.Store(int64(newShards))
	s.copiedKeys.Store(0)
	s.copiedBytes.Store(0)
	s.tailed.Store(0)
	s.lagEpochs.Store(0)
	s.phase.Store(reshardSnapshot)
	fail := func(err error) (ReshardResult, error) {
		s.phase.Store(reshardIdle)
		return ReshardResult{}, err
	}
	db.trace.Record(obs.EvReshardStart, -1, donor.epoch(), 0, int64(newShards))
	if err := db.fireReshard("reshard-start"); err != nil {
		return fail(err)
	}

	// Build: a fresh shard set at the next topology version, sized from
	// the original options so per-shard defaults derive from the NEW shard
	// count (the donor's post-default sizes are already divided by the old
	// one). Targets are always shard.Store-backed, even at one shard, so
	// an unsharded DB can reshard outward and a cluster can fold to one.
	topts := db.rawOpts
	topts.Shards = newShards
	topts.setDefaults()
	nextVer := donor.topo.Version + 1
	target, _ := shard.Open(shardConfig(topts, nextVer, db.trace, db.stw, db.phases))

	// Snapshot copy, then tail, through the applier: the replication path
	// pointed back at this process, with the next topology as its target.
	app := newApplier()
	info, err := app.bootstrap(db, db.reshardTarget(target, app), nil)
	if err != nil {
		return fail(err)
	}
	defer app.feed.Close()
	db.trace.Record(obs.EvReshardSnapshot, -1, info.AnchorEpoch, time.Since(start), s.copiedKeys.Load())
	if err := db.fireReshard("snapshot-done"); err != nil {
		return fail(err)
	}
	target.Advance() // commit the restored state before tailing on top
	if err := db.fireReshard("restore-done"); err != nil {
		return fail(err)
	}

	// Tail: apply released batches until the target has caught up with
	// everything committed so far.
	s.phase.Store(reshardTail)
	s.lagEpochs.Store(int64(app.state().behind(app.feed.Released())))
	if err := app.tail(app.feed.Released()); err != nil {
		return fail(err)
	}
	if err := db.fireReshard("pre-cutover"); err != nil {
		return fail(err)
	}

	// Cutover, under the transaction manager's exclusive commit guard (no
	// transaction commit or coordinated checkpoint runs concurrently):
	//
	//   gate writers → drain in-flight writes → donor's final checkpoint
	//   → drain stream to that horizon → commit target → COMMIT MANIFEST
	//   → seal donor → swap engine → open gate.
	//
	// The manifest commit is the durable point of no return; every hook
	// error before it unwinds to the donor with nothing lost (all
	// concurrent writes landed on the donor and stay there), every error
	// after it reports a completed reshard.
	s.phase.Store(reshardCutover)
	var pause time.Duration
	cutErr := db.txns.Cutover(txn.ClusterConfig(target), func() (bool, error) {
		t0 := time.Now()
		gated := donor.barrier()
		db.eng.Store(gated)
		unwind := func() {
			db.eng.Store(donor)
			close(gated.gate)
		}
		donor.drainWrites()
		donor.advanceRaw() // final donor checkpoint: releases the last writes
		if err := db.fireReshard("cutover-advanced"); err != nil {
			unwind()
			return false, err
		}
		if err := app.tail(app.feed.Released()); err != nil {
			unwind()
			return false, err
		}
		if err := db.fireReshard("cutover-drained"); err != nil {
			unwind()
			return false, err
		}
		target.Advance() // target durably holds everything the donor ever committed
		if err := db.fireReshard("cutover-target-committed"); err != nil {
			unwind()
			return false, err
		}
		db.manifest.Commit(nextVer, newShards) // THE commit point
		s.cutovers.Add(1)
		db.trace.Record(obs.EvReshardCutover, -1, donor.epoch(), time.Since(t0), int64(nextVer))
		donor.seal()
		var commitErr error
		if err := db.fireReshard("cutover-manifest"); err != nil {
			commitErr = fmt.Errorf("incll: reshard committed; post-commit hook: %w", err)
		}
		db.eng.Store(newEngine(topts, nil, nil, target))
		close(gated.gate)
		pause = time.Since(t0)
		return true, commitErr
	})
	if db.manifest.Version() != nextVer {
		// The cutover unwound before the manifest commit: the donor is
		// live and untouched, the target is discarded.
		return fail(cutErr)
	}

	// Committed. Retire the donor-bound plumbing: the change hub dies with
	// the donor topology (subscribers see ErrStreamLost and re-bootstrap,
	// exactly as after a primary crash), and the metrics registry and
	// recorder rebuild against the new engine's per-shard series.
	db.replMu.Lock()
	if db.replHub != nil {
		db.replHub.Close(false)
		db.replHub = nil
	}
	db.replMu.Unlock()
	db.resetRegistry()
	db.restartRecorder()

	s.phase.Store(reshardIdle)
	s.lastPauseNS.Store(int64(pause))
	took := time.Since(start)
	db.trace.Record(obs.EvReshardDone, -1, db.currentEpoch(), took, int64(newShards))
	res := ReshardResult{
		From:          donor.topo.Shards,
		To:            newShards,
		TopoVersion:   nextVer,
		CopiedKeys:    s.copiedKeys.Load(),
		CopiedBytes:   s.copiedBytes.Load(),
		TailedChanges: s.tailed.Load(),
		CutoverPause:  pause,
		Took:          took,
	}
	return res, cutErr
}
