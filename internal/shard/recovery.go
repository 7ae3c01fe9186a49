package shard

import "incll/internal/nvm"

// SimulateCrash injects a power failure across the whole cluster: on every
// shard arena each dirty cache line survives with probability
// persistFraction (independent per-shard policies derived from seed), the
// coordinator arena crashes too, and the store becomes unusable until
// Reopen. All handles must be quiescent.
func (s *Store) SimulateCrash(persistFraction float64, seed int64) {
	s.crashArenas(persistFraction, seed)
}

func (s *Store) crashArenas(persistFraction float64, seed int64) {
	// The coordinator record is written back and fenced at every commit,
	// so it is clean here and survives any policy.
	if s.coord != nil {
		s.coord.Crash(nvm.RandomPolicy(persistFraction, seed^0x5eed))
	}
	for i, a := range s.arenas {
		a.Crash(nvm.RandomPolicy(persistFraction, seed+int64(i)*104729))
	}
}

// CrashDuringAdvance drives a global checkpoint to a chosen failure point
// and injects the power failure there — the validation hook for the
// cross-shard atomicity tests, reaching the windows SimulateCrash cannot:
//
//   - prepared < NumShards, !commitGlobal: the crash hits phase 1, with a
//     prefix of shards flushed. Recovery must roll the epoch back on every
//     shard (to the previous global boundary).
//   - prepared == NumShards, commitGlobal: the crash hits phase 2, after
//     the global commit record landed but before localCommits of the
//     shards recorded the commit locally. Recovery must keep the epoch on
//     every shard.
//
// A one-shard store has no global record: the shard's local commit is the
// commit point, so there commitGlobal performs that commit (and
// localCommits, which it subsumes, is ignored) — the same two outcomes,
// rolled back without it and kept with it.
//
// commitGlobal with prepared < NumShards would violate the protocol (the
// coordinator only commits after every shard prepared) and panics. The
// store is unusable afterwards until Reopen.
func (s *Store) CrashDuringAdvance(prepared, localCommits int, commitGlobal bool, persistFraction float64, seed int64) {
	if commitGlobal && prepared != len(s.shards) {
		panic("shard: CrashDuringAdvance: global commit before every shard prepared")
	}
	if localCommits > 0 && !commitGlobal {
		panic("shard: CrashDuringAdvance: local commit before the global record")
	}
	s.advMu.Lock()
	defer s.advMu.Unlock()
	for i := 0; i < prepared; i++ {
		s.shards[i].Epochs().Prepare()
	}
	if commitGlobal {
		if s.coord == nil {
			localCommits = 1 // the shard's own commit is the global one
		} else {
			s.commitRecord(s.shards[0].Epochs().Current())
		}
	}
	for i := 0; i < localCommits; i++ {
		s.shards[i].Epochs().Commit()
	}
	s.crashArenas(persistFraction, seed)
}

// Reopen recovers the cluster from the arena contents after SimulateCrash
// or CrashDuringAdvance (or after Shutdown, to model a clean restart).
func (s *Store) Reopen() (*Store, RecoveryInfo) {
	if s.coord != nil {
		s.coord.ResetReservations()
	}
	for _, a := range s.arenas {
		a.ResetReservations()
	}
	return attach(s.coord, s.arenas, s.cfg)
}
