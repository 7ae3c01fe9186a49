package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/core"
	"incll/internal/obs"
)

// Advance runs one coordinated global checkpoint — the paper's 64 ms epoch
// boundary generalized to N stores — and returns the total number of cache
// lines flushed. Two phases:
//
//  1. Prepare: every shard stops its world, durably marks its boundary,
//     and flushes its whole arena. After this phase the entire effect of
//     the epoch (including all undo information) is persistent on every
//     shard, but the epoch is still uncommitted everywhere: a crash now
//     rolls it back on every shard, to the previous global boundary.
//
//  2. Commit: one fenced write of the coordinator record (a single cache
//     line, so atomic under PCSO) commits the epoch globally; then every
//     shard commits locally and resumes. A crash between the record write
//     and a shard's local commit is repaired at reopen by the commit
//     oracle (epoch.OpenCoordinated): the flush already completed, so the
//     shard's epoch stands.
//
// Either way, recovery lands every shard on the same boundary; there is no
// crash point at which shard A exposes epoch k and shard B epoch k−1.
//
// One shard is one participant: its Advance is the shard's own (the
// header write that begins the next epoch is the commit point), with no
// coordinator record, no extra fence and no goroutines.
func (s *Store) Advance() int {
	if s.coord == nil {
		return s.shards[0].Advance()
	}
	s.advMu.Lock()
	defer s.advMu.Unlock()

	// Phase 1: prepare every shard (parallel — flushing dominates).
	var flushed atomic.Int64
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *core.Store) {
			defer wg.Done()
			flushed.Add(int64(sh.Epochs().Prepare()))
		}(sh)
	}
	wg.Wait()

	// Global commit point: one line, written back and fenced.
	s.commitRecord(s.shards[0].Epochs().Current())

	// Phase 2: locally commit every shard and resume its world.
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *core.Store) {
			defer wg.Done()
			sh.Epochs().Commit()
		}(sh)
	}
	wg.Wait()
	return int(flushed.Load())
}

// commitRecord durably records e as the last globally committed epoch.
func (s *Store) commitRecord(e uint64) {
	start := time.Now()
	s.coord.Store(s.coordOff+cEpoch, e)
	s.coord.Writeback(s.coordOff)
	s.coord.Fence()
	// The coordinator is not a shard; tag its events −1.
	s.trace.Record(obs.EvCoordRecord, -1, e, time.Since(start), 0)
}

// Shutdown commits a final global checkpoint and durably marks every shard
// cleanly shut down. The store must not be used afterwards. One shard
// needs no final checkpoint: its clean-shutdown mark commits the running
// epoch by itself.
func (s *Store) Shutdown() {
	if s.coord != nil {
		s.Advance()
	}
	for _, sh := range s.shards {
		sh.Shutdown()
	}
}
