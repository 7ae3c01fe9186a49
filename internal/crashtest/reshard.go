package crashtest

// Reshard crash campaign: run a live DB under concurrent single-key and
// transactional write load, drive an online reshard, abort it at every
// protocol point in rotation (standing in for the process dying there),
// then inject a power failure and recover. The invariants:
//
//  1. Atomic cutover. After crash recovery the DB is entirely on one side
//     of the reshard — the donor topology if the abort hit before the
//     manifest commit, the target topology if at or after it — as named
//     by the durable topology manifest. Never a mixture.
//
//  2. Zero lost or duplicated keys. The recovered state equals the
//     expected committed state exactly (preload plus every completed
//     concurrent write), and the merge cursor yields each key exactly
//     once, strictly ordered, walking either way.
//
//  3. Transactional atomicity across the cutover. Mirrored transaction
//     writes (two keys per commit) are never observed half-applied, on
//     either side of the cutover, before or after the crash.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"incll"
	"incll/internal/crashpoint"
	"incll/internal/epoch"
)

// ReshardConfig parameterizes one reshard crash campaign.
type ReshardConfig struct {
	// From and To are the donor and target shard counts.
	From, To int
	// Workers is the number of concurrent single-key writer goroutines
	// (disjoint key ranges); one extra transaction worker always runs.
	Workers int
	// KeysPerWorker is each writer's key-range size.
	KeysPerWorker int
	// PersistFraction is the probability a dirty line survives each crash
	// (0: none survives).
	PersistFraction float64
}

func (c *ReshardConfig) setDefaults() {
	if c.From <= 0 {
		c.From = 4
	}
	if c.To <= 0 {
		c.To = 8
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.KeysPerWorker <= 0 {
		c.KeysPerWorker = 300
	}
}

// reshardPoints are the protocol points the campaign aborts at, in order;
// "" is a full success (crash injected only after completion). Points at
// or after the manifest commit ("cutover-manifest") land on the target
// side; everything before lands on the donor side.
var reshardPoints = []string{
	"reshard-start", "snapshot-done", "restore-done", "tail-batch",
	"pre-cutover", "cutover-advanced", "cutover-drained",
	"cutover-target-committed", "cutover-manifest", "",
}

// RunReshard executes one reshard crash campaign with the given seed: one
// crash/recover round per protocol point. Returns an error describing the
// first invariant violation.
func RunReshard(cfg ReshardConfig, seed int64) error {
	cfg.setDefaults()
	for round, point := range reshardPoints {
		if err := runReshardRound(cfg, seed+int64(round)*101, point); err != nil {
			return fmt.Errorf("round %d (abort at %q): %w", round, point, err)
		}
	}
	return nil
}

func runReshardRound(cfg ReshardConfig, seed int64, point string) (err error) {
	opts := incll.Options{
		Shards:      cfg.From,
		Workers:     cfg.Workers + 2, // writers + txn worker + spare
		ArenaWords:  1 << 18,
		HeapWords:   1 << 17,
		LogSegWords: 1 << 12,
		TxnSegWords: 1 << 11,
	}
	db, _ := incll.Open(opts)
	defer func() { err = dumpTraceOnFailure("reshard", seed, db.DumpTrace, err) }()

	// Committed preload.
	pre := cfg.Workers * cfg.KeysPerWorker / 2
	for i := 0; i < pre; i++ {
		db.Put([]byte(fmt.Sprintf("pre/%05d", i)), uint64(i))
	}
	db.Checkpoint()

	// Concurrent load: per-worker single-key writers over disjoint ranges
	// (occasional deletes, occasional checkpoints so the reshard tail has
	// released batches to chew on), plus one transaction worker committing
	// mirrored pairs. Every completed write is recorded; all must survive.
	var (
		stop  = make(chan struct{})
		wrote sync.Map // string key -> uint64 value, or nil when deleted
		pairs sync.Map // pair index int -> uint64 value (committed txns)
		wg    sync.WaitGroup
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(w*7+1)))
			h := db.Handle(w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%02d/%05d", w, rng.Intn(cfg.KeysPerWorker))
				if rng.Intn(12) == 0 {
					h.Delete([]byte(key))
					wrote.Store(key, nil)
				} else {
					v := uint64(i)<<8 | uint64(w)
					h.Put([]byte(key), v)
					wrote.Store(key, v)
				}
				if i%256 == 255 {
					db.Checkpoint()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x7a31))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := rng.Intn(cfg.KeysPerWorker)
			t := db.BeginWorker(cfg.Workers)
			v := uint64(i + 1)
			t.Put([]byte(fmt.Sprintf("ta/%05d", p)), v)
			t.Put([]byte(fmt.Sprintf("tb/%05d", p)), v)
			if cerr := t.Commit(); cerr == nil {
				pairs.Store(p, v)
			} else if !errors.Is(cerr, incll.ErrConflict) {
				panic(cerr)
			}
		}
	}()

	if point != "" {
		hits := 0
		crashpoint.Set(db, func(p string) error {
			if p == point {
				hits++
				if hits == 1 {
					return errAbort
				}
			}
			return nil
		})
	}
	_, rerr := db.Reshard(cfg.To)
	crashpoint.Set(db, nil)
	close(stop)
	wg.Wait()

	// Which side must the DB be on? At/after the manifest commit the
	// reshard is complete even when the hook errored.
	committed := point == "" || point == "cutover-manifest"
	switch {
	case point == "" && rerr != nil:
		return fmt.Errorf("clean reshard failed: %w", rerr)
	case point != "" && !errors.Is(rerr, errAbort):
		return fmt.Errorf("abort did not surface: err = %v", rerr)
	}
	wantShards, wantVer := cfg.From, uint64(1)
	if committed {
		wantShards, wantVer = cfg.To, 2
	}
	if db.Shards() != wantShards || db.TopoVersion() != wantVer {
		return fmt.Errorf("live topology = %d shards v%d, want %d shards v%d",
			db.Shards(), db.TopoVersion(), wantShards, wantVer)
	}

	// Commit everything the writers completed, then crash and recover.
	db.Checkpoint()
	db.SimulateCrash(cfg.PersistFraction, seed)
	reopened, info := db.Reopen()
	db = reopened
	if info.Status == epoch.FreshStart {
		return errors.New("reopen lost the arena")
	}
	if db.Shards() != wantShards || db.TopoVersion() != wantVer {
		return fmt.Errorf("recovered topology = %d shards v%d, want %d shards v%d",
			db.Shards(), db.TopoVersion(), wantShards, wantVer)
	}

	// Invariant 2: exact expected state — nothing lost, nothing extra, and
	// the merge cursor yields each key exactly once, strictly ordered in
	// both directions (a routing bug would duplicate or reorder).
	want := model{}
	for i := 0; i < pre; i++ {
		want[fmt.Sprintf("pre/%05d", i)] = string(incll.EncodeValue(uint64(i)))
	}
	wrote.Range(func(k, v any) bool {
		if v == nil {
			delete(want, k.(string))
		} else {
			want[k.(string)] = string(incll.EncodeValue(v.(uint64)))
		}
		return true
	})
	pairs.Range(func(k, v any) bool {
		want[fmt.Sprintf("ta/%05d", k.(int))] = string(incll.EncodeValue(v.(uint64)))
		want[fmt.Sprintf("tb/%05d", k.(int))] = string(incll.EncodeValue(v.(uint64)))
		return true
	})
	if err := verify(db, want); err != nil {
		return fmt.Errorf("recovered state diverges: %w", err)
	}

	// Invariant 3: no half-applied transaction pair, recorded or not.
	for i := 0; i < cfg.KeysPerWorker; i++ {
		a, aok := db.Get([]byte(fmt.Sprintf("ta/%05d", i)))
		b, bok := db.Get([]byte(fmt.Sprintf("tb/%05d", i)))
		if aok != bok || a != b {
			return fmt.Errorf("txn pair %d torn: ta=(%d,%v) tb=(%d,%v)", i, a, aok, b, bok)
		}
	}

	// The recovered topology keeps working.
	db.Put([]byte("post/alive"), 1)
	db.Checkpoint()
	db.Close()
	return nil
}
