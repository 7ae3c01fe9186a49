// Package crashtest implements the paper's §5.2 validation methodology:
// run the durable Masstree under random workloads, crash it at arbitrary
// points with adversarially chosen subsets of dirty cache lines surviving,
// restart, and check that the recovered state matches the state at the
// last committed epoch boundary, exactly.
//
// Concurrent workers operate on disjoint key ranges so the reference model
// is well-defined without serializing the workload.
package crashtest

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
	"incll/internal/shard"
)

// Config parameterizes one crash-injection campaign.
type Config struct {
	// Keyspace is the number of distinct keys (split across workers; at
	// least one per worker).
	Keyspace uint64
	// Workers is the number of concurrent mutator goroutines.
	Workers int
	// Shards is the store's shard count (default 1: one store, no
	// coordinator). Above one, checkpoints are coordinated and crashes
	// also strike inside the two-phase global checkpoint.
	Shards int
	// OpsPerEpoch is the number of operations each worker runs per epoch.
	OpsPerEpoch int
	// EpochsPerRound is the number of committed epochs before each crash.
	EpochsPerRound int
	// Rounds is the number of crash/recover cycles.
	Rounds int
	// PersistFraction is the probability a dirty line survives each crash
	// (0: none survives).
	PersistFraction float64
	// ArenaWords sizes the simulated NVM, split evenly across shards.
	ArenaWords uint64
	// ValueBytes, when > 0, makes every put store a random byte value of
	// up to this many bytes (exercising the value heap: inline values,
	// out-of-place blocks, class churn). 0 stores small uint64 values.
	ValueBytes int
	// DirtyCapacity, when > 0, bounds the dirty lines each shard's cache
	// holds (nvm.Config.DirtyCapacity): past it, background eviction
	// persists a random dirty line mid-epoch with whatever it holds at
	// that moment, as a real cache's replacement traffic does. 0 disables
	// eviction.
	DirtyCapacity int
}

func (c *Config) setDefaults() {
	if c.Keyspace == 0 {
		c.Keyspace = 4000
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.OpsPerEpoch <= 0 {
		c.OpsPerEpoch = 800
	}
	if c.EpochsPerRound <= 0 {
		c.EpochsPerRound = 2
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.ArenaWords == 0 {
		c.ArenaWords = 1 << 22
	}
}

// model is a reference state: key bytes to value bytes.
type model map[string]string

// Run executes one campaign with the given seed. It returns the number of
// crash rounds the campaign ran (cfg.Rounds, or its default) and an error
// describing the first divergence between the recovered store and the
// committed reference model, or nil if every crash recovered exactly.
//
// Every campaign records the protocol phase trace (checkpoint prepares
// and commits, recovery replays); on failure dumpTraceOnFailure leaves
// the dump where CI picks it up, so a red crash-matrix run ships the
// exact sequence of protocol events that led to the divergence.
func Run(cfg Config, seed int64) (rounds int, err error) {
	cfg.setDefaults()
	if cfg.Keyspace < uint64(cfg.Workers) {
		return 0, fmt.Errorf("keyspace %d is smaller than %d workers: each worker needs at least one key",
			cfg.Keyspace, cfg.Workers)
	}
	trace := obs.NewTracer(obs.DefaultTraceEvents)
	return cfg.Rounds, dumpTraceOnFailure("store", seed, trace.Dump, run(cfg, seed, trace))
}

// dumpTraceOnFailure routes a failing campaign's phase trace where CI can
// attach it as an artifact: when INCLL_TRACE_DIR names a directory, the
// dump lands there as <kind>-trace-<seed>.txt and the returned error
// points at it. With the variable unset the error passes through alone.
func dumpTraceOnFailure(kind string, seed int64, dump func(io.Writer) error, err error) error {
	if err == nil {
		return nil
	}
	dir := os.Getenv("INCLL_TRACE_DIR")
	if dir == "" {
		return err
	}
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		return fmt.Errorf("%w (trace dump: %v)", err, mkErr)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-trace-%d.txt", kind, seed))
	f, cErr := os.Create(path)
	if cErr != nil {
		return fmt.Errorf("%w (trace dump: %v)", err, cErr)
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s campaign seed %d: %v\n", kind, seed, err)
	if dErr := dump(f); dErr != nil {
		return fmt.Errorf("%w (trace dump: %v)", err, dErr)
	}
	return fmt.Errorf("%w (phase trace: %s)", err, path)
}

// run drives one campaign on a shard.Store. Every round commits a few
// epochs, runs a doomed partial epoch, and crashes: mid-epoch (every
// shard's cache torn independently), or — above one shard — inside the
// two-phase global checkpoint, where the all-or-nothing boundary is the
// coordinator's fenced commit record rather than any one shard's header.
func run(cfg Config, seed int64, trace *obs.Tracer) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ed))
	s, info := shard.Open(shard.Config{
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		ArenaWords: cfg.ArenaWords / uint64(cfg.Shards),
		NVM:        nvm.Config{DirtyCapacity: cfg.DirtyCapacity, Seed: seed},
		Trace:      trace,
	})
	if info.Status != epoch.FreshStart {
		return fmt.Errorf("fresh store opened with status %v", info.Status)
	}

	committed := model{} // state at the last global boundary
	working := model{}   // state including the running epoch

	for round := 0; round < cfg.Rounds; round++ {
		for e := 0; e < cfg.EpochsPerRound; e++ {
			runEpoch(s, cfg, working, seed+int64(round*1000+e))
			s.Advance()
			committed = maps.Clone(working)
		}
		// Doomed partial epoch, then a crash: plain mid-epoch, inside
		// phase 1 (must roll back everywhere), or inside phase 2 after the
		// global record (must stand everywhere). One shard has no
		// two-phase checkpoint and always crashes mid-epoch.
		runEpoch(s, cfg, working, seed+int64(round*1000+999))
		mode := 0
		if cfg.Shards > 1 {
			mode = rng.Intn(3)
		}
		switch mode {
		case 0:
			s.SimulateCrash(cfg.PersistFraction, seed+int64(round))
		case 1:
			s.CrashDuringAdvance(rng.Intn(cfg.Shards+1), 0, false, cfg.PersistFraction, seed+int64(round))
		case 2:
			s.CrashDuringAdvance(cfg.Shards, rng.Intn(cfg.Shards+1), true, cfg.PersistFraction, seed+int64(round))
			committed = maps.Clone(working)
		}

		s, info = s.Reopen()
		if info.Status != epoch.CrashRecovered {
			return fmt.Errorf("round %d: reopen status %v, want crash-recovered", round, info.Status)
		}
		for i, sr := range info.Shards {
			if sr.Epoch != info.Shards[0].Epoch {
				return fmt.Errorf("round %d: shard %d recovered to epoch %d, shard 0 to %d",
					round, i, sr.Epoch, info.Shards[0].Epoch)
			}
		}
		working = maps.Clone(committed)
		if err := verify(s.Handle(0), committed); err != nil {
			return fmt.Errorf("round %d: recovered state diverges: %w", round, err)
		}
	}
	// A clean shutdown must preserve everything, with no dirty line left
	// for a crash to lose.
	runEpoch(s, cfg, working, seed+424242)
	s.Shutdown()
	s.SimulateCrash(0, seed)
	s, info = s.Reopen()
	if info.Status != epoch.CleanRestart {
		return fmt.Errorf("clean shutdown reopened with status %v", info.Status)
	}
	if err := verify(s.Handle(0), working); err != nil {
		return fmt.Errorf("after clean shutdown: %w", err)
	}
	return nil
}

// randValue draws one value: a small uint64's canonical encoding by
// default, or — in byte mode — a random payload of up to ValueBytes bytes.
func randValue(cfg Config, rng *rand.Rand) string {
	if cfg.ValueBytes <= 0 {
		return string(core.EncodeValue(rng.Uint64() % 1_000_000))
	}
	b := make([]byte, rng.Intn(cfg.ValueBytes+1))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// runEpoch has each worker mutate its own key range, mirroring every
// mutation into the model.
func runEpoch(s *shard.Store, cfg Config, m model, seed int64) {
	per := cfg.Keyspace / uint64(cfg.Workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle(w)
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			local := model{}
			deleted := map[string]bool{}
			for i := 0; i < cfg.OpsPerEpoch; i++ {
				k := core.EncodeUint64(uint64(w)*per + uint64(rng.Int63n(int64(per))))
				switch rng.Intn(6) {
				case 0:
					h.Delete(k)
					delete(local, string(k))
					deleted[string(k)] = true
				case 1:
					h.Get(k)
				default:
					v := randValue(cfg, rng)
					h.PutBytes(k, []byte(v))
					local[string(k)] = v
					delete(deleted, string(k))
				}
			}
			mu.Lock()
			maps.Copy(m, local)
			for k := range deleted {
				delete(m, k)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
}

// reader is what verify checks: a shard.Handle or an *incll.DB.
type reader interface {
	GetBytes(k []byte) ([]byte, bool)
	NewIter(o core.IterOptions) core.Cursor
}

// verify checks s against want exactly: a point lookup per key, then one
// cursor walk in each direction that must be strictly ordered and yield
// exactly want's keys with their exact bytes, so torn values, lost or
// resurrected keys and reordering cannot hide.
func verify(s reader, want model) error {
	for k, v := range want {
		got, ok := s.GetBytes([]byte(k))
		if !ok {
			return fmt.Errorf("key %q missing", k)
		}
		if string(got) != v {
			return fmt.Errorf("key %q = %x, want %x", k, got, v)
		}
	}
	it := s.NewIter(core.IterOptions{})
	defer it.Close()
	walks := []struct {
		dir         string
		start, step func() bool
		order       int // bytes.Compare(previous key, key)
	}{{"forward", it.First, it.Next, -1}, {"reverse", it.Last, it.Prev, 1}}
	for _, w := range walks {
		n := 0
		var prev []byte
		for ok := w.start(); ok; ok = w.step() {
			k := it.Key()
			if n > 0 && bytes.Compare(prev, k) != w.order {
				return fmt.Errorf("%s cursor out of order: %q after %q", w.dir, k, prev)
			}
			prev = append(prev[:0], k...)
			n++
			v, ok := want[string(k)]
			if !ok {
				return fmt.Errorf("%s cursor found key %q, want absent", w.dir, k)
			}
			if v != string(it.Value()) {
				return fmt.Errorf("%s cursor key %q = %x, want %x", w.dir, k, it.Value(), v)
			}
		}
		if n != len(want) {
			return fmt.Errorf("%s cursor found %d keys, want %d", w.dir, n, len(want))
		}
	}
	return nil
}
