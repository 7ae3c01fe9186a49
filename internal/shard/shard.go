// Package shard partitions the keyspace across N independent durable
// stores — each a core.Store over its own simulated NVM arena — behind one
// façade, and generalizes the paper's epoch ticker to the cluster: a
// two-phase coordinated checkpoint quiesces every shard, flushes every
// arena, and then commits a single global epoch record, so a crash can
// never expose shard A at epoch k and shard B at epoch k−1.
//
// Routing is a pure function of the key bytes (see Route), so a recovering
// process re-derives the same placement; the shard count is stamped
// durably in the coordinator record and reopening with a different count
// panics, exactly like core's layout fingerprint.
//
// The commit protocol and its crash cases are spelled out in DESIGN.md
// ("Sharding and coordinated checkpoints").
package shard

import (
	"fmt"
	"sync"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
)

// Config sizes and parameterizes a sharded store. Every per-shard knob
// (arena, heap, log) applies to each shard independently.
type Config struct {
	// Shards is the number of independent store+arena partitions (≥ 1).
	Shards int
	// Workers is the number of concurrent worker threads; worker i uses
	// Handle(i), which carries a per-shard core handle for every shard.
	Workers int
	// ArenaWords is the per-shard simulated NVM size in 8-byte words.
	ArenaWords uint64
	// HeapWords is the per-shard durable heap size (default: half the
	// shard's arena).
	HeapWords uint64
	// LogSegWords is the per-worker external-log segment size per shard.
	LogSegWords uint64
	// TxnSegWords is the per-worker transaction intent segment size per
	// shard (see internal/txn).
	TxnSegWords uint64
	// DisableInCLL switches every shard to the LOGGING ablation.
	DisableInCLL bool
	// TopoVersion stamps the store's place in its DB's reshard history
	// (see Topology). 0 defaults to 1, the initial topology.
	TopoVersion uint64
	// NVM carries the rest of the per-arena cache model (fence latency,
	// eviction); Words is overridden by ArenaWords.
	NVM nvm.Config
	// Trace receives protocol events from every shard (tagged with its
	// shard index) and from the coordinator (shard −1); StopTheWorld
	// accumulates every shard's measured stop-the-world window. Both
	// optional; see internal/obs.
	Trace        *obs.Tracer
	StopTheWorld *obs.Histogram
	// Phases is the sampled latency-attribution timer shared by every
	// shard's core store (see obs.PhaseSet). Optional.
	Phases *obs.PhaseSet
}

func (c *Config) setDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.ArenaWords == 0 {
		c.ArenaWords = 1 << 22
	}
	if c.HeapWords == 0 {
		c.HeapWords = c.ArenaWords / 2
	}
	if c.LogSegWords == 0 {
		c.LogSegWords = 1 << 16
	}
	if c.TxnSegWords == 0 {
		c.TxnSegWords = 1 << 12
	}
	if c.TopoVersion == 0 {
		c.TopoVersion = 1
	}
}

// Coordinator record layout: one cache line in the coordinator arena. The
// epoch and magic share the line, so the commit write (cEpoch) persists
// atomically under PCSO — this single line is the cluster's commit point.
const (
	cMagic  = 0
	cEpoch  = 1 // last globally committed epoch (0 = none yet)
	cShards = 2 // durable shard-count fingerprint

	recordMagic = 0x5a4dc00d1a70 // coordinator record magic ("shard coordinator v1")
)

// ShardRecovery describes what one shard's recovery found.
type ShardRecovery struct {
	Status            epoch.Status
	LogEntriesApplied int
	// Epoch is the shard's running epoch after recovery; Open guarantees
	// it is identical across shards.
	Epoch uint64
}

// RecoveryInfo merges the per-shard recovery outcomes.
type RecoveryInfo struct {
	// Status is the worst outcome across shards (a single crashed shard
	// makes the cluster crash-recovered).
	Status epoch.Status
	// LogEntriesApplied totals the external-log pre-images replayed.
	LogEntriesApplied int
	// FailedEpochs is the largest per-shard cumulative failed-epoch count.
	FailedEpochs int
	// GlobalEpoch is the last globally committed epoch (0 on fresh start).
	GlobalEpoch uint64
	// Shards holds the per-shard detail, indexed by shard.
	Shards []ShardRecovery
}

// Store is a sharded durable store: N core.Stores over N arenas plus a
// tiny coordinator arena holding the global epoch record.
type Store struct {
	coord    *nvm.Arena
	coordOff uint64
	arenas   []*nvm.Arena
	shards   []*core.Store
	cfg      Config

	iterSlots []core.CursorSlot[Iter] // per worker: the last closed merge cursor

	advMu sync.Mutex // serializes global advances

	ticker epoch.Ticker

	trace *obs.Tracer // coordinator-record events (may be nil)
}

// Open creates a sharded store over fresh arenas.
func Open(cfg Config) (*Store, RecoveryInfo) {
	cfg.setDefaults()
	// The coordinator pays the same fence latency as the shards: its
	// commit-record write is the one extra fenced NVM write coordination
	// adds per global checkpoint, and must not be free in the emulated-
	// latency experiments.
	coord := nvm.New(nvm.Config{Words: nvm.WordsPerLine * 2, FenceDelay: cfg.NVM.FenceDelay})
	// Allocate the per-shard arenas in parallel: a fresh arena is a large
	// zeroed allocation (~250 ms per shard at default sizes), and paying it
	// serially made cold-target Restore and the reshard builder O(shards)
	// where the work is embarrassingly parallel.
	arenas := make([]*nvm.Arena, cfg.Shards)
	var wg sync.WaitGroup
	for i := range arenas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ncfg := cfg.NVM
			ncfg.Words = cfg.ArenaWords
			ncfg.Seed = cfg.NVM.Seed + int64(i)*7919
			arenas[i] = nvm.New(ncfg)
		}(i)
	}
	wg.Wait()
	return attach(coord, arenas, cfg)
}

// attach (re)binds a Store to existing arenas: reads the coordinator
// record, recovers every shard in parallel against the global commit
// oracle, and checks the cluster invariant that all shards resume in the
// same epoch.
func attach(coord *nvm.Arena, arenas []*nvm.Arena, cfg Config) (*Store, RecoveryInfo) {
	s := &Store{
		coord:  coord,
		arenas: arenas,
		shards: make([]*core.Store, cfg.Shards),
		cfg:    cfg,
		trace:  cfg.Trace,

		iterSlots: make([]core.CursorSlot[Iter], cfg.Workers),
	}
	s.coordOff = coord.Reserve(nvm.WordsPerLine)

	var g uint64 // last globally committed epoch
	if coord.Load(s.coordOff+cMagic) == recordMagic {
		if n := coord.Load(s.coordOff + cShards); n != uint64(cfg.Shards) {
			panic(fmt.Sprintf("shard: arena set was created with %d shards, reopened with %d; "+
				"the router would misplace every key", n, cfg.Shards))
		}
		g = coord.Load(s.coordOff + cEpoch)
	} else {
		coord.Store(s.coordOff+cMagic, recordMagic)
		coord.Store(s.coordOff+cShards, uint64(cfg.Shards))
		coord.Writeback(s.coordOff)
		coord.Fence()
	}
	// The oracle is a snapshot: recovery decisions depend only on the
	// record as the crash left it.
	committed := func(e uint64) bool { return e != 0 && e <= g }

	info := RecoveryInfo{GlobalEpoch: g, Shards: make([]ShardRecovery, cfg.Shards)}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, status := core.Open(arenas[i], core.Config{
				Workers:      cfg.Workers,
				LogSegWords:  cfg.LogSegWords,
				TxnSegWords:  cfg.TxnSegWords,
				HeapWords:    cfg.HeapWords,
				DisableInCLL: cfg.DisableInCLL,
				Committed:    committed,
				Trace:        cfg.Trace,
				StopTheWorld: cfg.StopTheWorld,
				Phases:       cfg.Phases,
				Shard:        i,
			})
			s.shards[i] = st
			info.Shards[i] = ShardRecovery{
				Status:            status,
				LogEntriesApplied: st.RecoveredLogEntries(),
				Epoch:             st.Epochs().Current(),
			}
		}(i)
	}
	wg.Wait()

	for i, sr := range info.Shards {
		if sr.Status > info.Status {
			info.Status = sr.Status
		}
		info.LogEntriesApplied += sr.LogEntriesApplied
		if n := s.shards[i].Epochs().FailedCount(); n > info.FailedEpochs {
			info.FailedEpochs = n
		}
		if sr.Epoch != info.Shards[0].Epoch {
			panic(fmt.Sprintf("shard: recovery broke the cluster epoch invariant: "+
				"shard 0 resumed at epoch %d, shard %d at %d", info.Shards[0].Epoch, i, sr.Epoch))
		}
	}
	return s, info
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Topology returns the store's epoch-versioned routing table.
func (s *Store) Topology() Topology {
	return Topology{Version: s.cfg.TopoVersion, Shards: len(s.shards)}
}

// Seal freezes the store after a reshard cutover donated its contents to
// a new shard set: every shard's epoch manager is sealed, so a stray
// advance on the retired store panics instead of silently forking the
// durable history. Reads (and cursors opened before the cutover) keep
// working against the frozen final state.
func (s *Store) Seal() {
	s.StopTicker()
	for _, sh := range s.shards {
		sh.Epochs().Seal()
	}
}

// ShardStore returns shard i's underlying store (stats, introspection).
func (s *Store) ShardStore(i int) *core.Store { return s.shards[i] }

// Stores returns the per-shard stores, indexed by shard. The replication
// hub attaches its change sinks and commit hooks through this: a shard's
// local epoch commit runs only after the coordinator record is durable, so
// per-shard commit hooks observe globally committed epochs, and the hub's
// min-across-shards released barrier is anchored at the two-phase
// coordinated-commit point. Callers must not mutate the slice.
func (s *Store) Stores() []*core.Store { return s.shards }

// Epoch returns the running epoch, identical on every shard.
func (s *Store) Epoch() uint64 { return s.shards[0].Epochs().Current() }

// GlobalEpoch returns the last globally committed epoch.
func (s *Store) GlobalEpoch() uint64 { return s.coord.Load(s.coordOff + cEpoch) }

// route returns the shard owning key k.
func (s *Store) route(k []byte) *core.Store { return s.shards[Route(k, len(s.shards))] }

// Handle is worker i's view of the cluster: every operation routes to the
// owning shard and runs on that shard's worker-i core handle. Not safe for
// concurrent use; distinct handles are.
type Handle struct {
	s *Store
	i int
}

// Handle returns worker i's handle (i < Config.Workers).
func (s *Store) Handle(i int) Handle { return Handle{s: s, i: i} }

// Get returns the value stored under k.
func (h Handle) Get(k []byte) (uint64, bool) { return h.s.route(k).Handle(h.i).Get(k) }

// GetBytes returns a copy of the byte value stored under k.
func (h Handle) GetBytes(k []byte) ([]byte, bool) { return h.s.route(k).Handle(h.i).GetBytes(k) }

// AppendGet appends k's value bytes to dst (the allocation-free GetBytes).
func (h Handle) AppendGet(dst []byte, k []byte) ([]byte, bool) {
	return h.s.route(k).Handle(h.i).AppendGet(dst, k)
}

// Put stores v under k; reports whether k was newly inserted.
func (h Handle) Put(k []byte, v uint64) bool { return h.s.route(k).Handle(h.i).Put(k, v) }

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted.
func (h Handle) PutBytes(k []byte, v []byte) bool { return h.s.route(k).Handle(h.i).PutBytes(k, v) }

// Delete removes k; reports whether it was present.
func (h Handle) Delete(k []byte) bool { return h.s.route(k).Handle(h.i).Delete(k) }

// Convenience single-threaded API on worker 0's handle.

// Get returns the value stored under k.
func (s *Store) Get(k []byte) (uint64, bool) { return s.Handle(0).Get(k) }

// GetBytes returns a copy of the byte value stored under k.
func (s *Store) GetBytes(k []byte) ([]byte, bool) { return s.Handle(0).GetBytes(k) }

// Put stores v under k; reports whether k was newly inserted.
func (s *Store) Put(k []byte, v uint64) bool { return s.Handle(0).Put(k, v) }

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted.
func (s *Store) PutBytes(k []byte, v []byte) bool { return s.Handle(0).PutBytes(k, v) }

// Delete removes k; reports whether it was present.
func (s *Store) Delete(k []byte) bool { return s.Handle(0).Delete(k) }

// Scan visits up to max keys ≥ start in ascending order across all shards.
func (s *Store) Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int {
	return s.Handle(0).Scan(start, max, fn)
}

// ScanBytes is Scan delivering byte values.
func (s *Store) ScanBytes(start []byte, max int, fn func(k, v []byte) bool) int {
	return s.Handle(0).ScanBytes(start, max, fn)
}

// Len sums the live-key counters across shards (transient; see
// core.Store.Len).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// RebuildLen recomputes every shard's Len with one scan each.
func (s *Store) RebuildLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.RebuildLen()
	}
	return n
}

// Stats returns a freshly built aggregate of the per-shard counters.
func (s *Store) Stats() *core.Stats {
	agg := &core.Stats{}
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.LoggedNodes.Add(0, st.LoggedNodes.Load())
		agg.InCLLPerm.Add(0, st.InCLLPerm.Load())
		agg.InCLLVal.Add(0, st.InCLLVal.Load())
		agg.LazyRecoveries.Add(0, st.LazyRecoveries.Load())
		agg.ValueHeapBytes.Add(0, st.ValueHeapBytes.Load())
		agg.Puts.Add(0, st.Puts.Load())
		agg.Gets.Add(0, st.Gets.Load())
		agg.Deletes.Add(0, st.Deletes.Load())
		agg.Scans.Add(0, st.Scans.Load())
	}
	return agg
}

// NVMStats sums the per-arena counters (including the coordinator's).
func (s *Store) NVMStats() nvm.StatsSnapshot {
	agg := s.coord.Stats().Snapshot()
	for _, a := range s.arenas {
		agg = agg.Add(a.Stats().Snapshot())
	}
	return agg
}
