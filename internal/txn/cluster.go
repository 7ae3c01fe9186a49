package txn

import (
	"incll/internal/core"
	"incll/internal/shard"
)

// ForStore assembles a Manager over one unsharded store and runs intent
// recovery, returning the number of transactions replayed.
func ForStore(s *core.Store) (*Manager, int) {
	return New(storeConfig(s))
}

// storeConfig is the Manager Config for one unsharded store: every key
// routes to it, and its own advance and cursor are the cluster's.
func storeConfig(s *core.Store) Config {
	return Config{
		Stores:  []*core.Store{s},
		Route:   func([]byte) int { return 0 },
		Advance: s.Advance,
		NewIter: func(w int, o core.IterOptions) core.Cursor {
			return s.Handle(w).NewIter(o)
		},
	}
}

// ForCluster assembles a Manager over a sharded cluster — its per-shard
// stores, the deterministic router, and the coordinated two-phase advance
// — and runs intent recovery, returning the number of transactions
// replayed. Rebuild after every Reopen.
func ForCluster(s *shard.Store) (*Manager, int) {
	return New(ClusterConfig(s))
}

// ClusterConfig builds the Manager Config for a sharded cluster without
// constructing the Manager — the shape a reshard cutover installs via
// Manager.Cutover.
func ClusterConfig(s *shard.Store) Config {
	stores := make([]*core.Store, s.NumShards())
	for i := range stores {
		stores[i] = s.ShardStore(i)
	}
	topo := s.Topology()
	return Config{
		Stores:      stores,
		TopoVersion: topo.Version,
		Route:       topo.Route,
		Advance:     s.Advance,
		NewIter: func(w int, o core.IterOptions) core.Cursor {
			return s.Handle(w).NewIter(o)
		},
	}
}
