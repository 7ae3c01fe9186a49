// Package incll is a Go reproduction of "Fine-Grain Checkpointing with
// In-Cache-Line Logging" (Cohen, Aksun, Avni, Larus — ASPLOS 2019): a
// durable Masstree over (simulated) non-volatile memory whose normal-path
// mutations never flush or fence.
//
// Because Go exposes no cache-flush intrinsics and no layout control, all
// durable state lives in a simulated NVM arena with an explicit cache
// model (see internal/nvm and DESIGN.md). The simulation is faithful to
// the PCSO persistence model the paper assumes, and power failures can be
// injected at any quiesced point with an arbitrary subset of dirty cache
// lines surviving.
//
// Quick start:
//
//	db, _ := incll.Open(incll.Options{})
//	db.Put(incll.Key(1), 100)
//	db.Checkpoint()                  // commit epoch (normally a 64ms ticker)
//	db.SimulateCrash(0.5, 42)        // power failure, half the cache survives
//	db, _ = db.Reopen()              // recovery
//	v, ok := db.Get(incll.Key(1))    // 100, true
//
// Values are variable-length byte strings up to MaxValueBytes
// (PutBytes/GetBytes, and the cursors' Value), stored on a crash-consistent
// value heap; values of at most five bytes live inline in the tree leaf.
// The uint64 methods are a view over the same store (see Handle), and
// small uint64s take the inline, allocation-free fast path.
//
// Every DB is a set of Options.Shards independent store+arena shards (one
// by default: the paper's single store) behind the same API (see
// internal/shard and DESIGN.md). For scale-out, a deterministic router
// places each key, scans k-way merge the shards back into one ordered
// stream, and Checkpoint becomes a coordinated two-phase epoch advance
// that commits a single global epoch record — a crash never exposes one
// shard at epoch k and another at k−1. One shard has nothing to
// coordinate: its checkpoint is its own epoch advance.
//
//	db, _ := incll.Open(incll.Options{Shards: 4, Workers: 4})
//	db.Handle(2).Put(incll.Key(7), 7)   // routed to key 7's shard
//	db.Checkpoint()                     // global two-phase commit
//	db.SimulateCrash(0.5, 42)           // all shards crash together
//	db, info := db.Reopen()             // parallel per-shard recovery
//	_ = info.Shards                     // per-shard recovery detail
//
// Range reads are served by first-class cursors (DB.NewIter): bounded,
// bidirectional iterators that walk the tree in small batches, re-entering
// the epoch machinery between batches so even a full-table iteration never
// delays a checkpoint by more than one batch. Range-over-func adapters
// make them idiomatic to consume:
//
//	for k, v := range db.All() { ... }          // whole DB, ascending
//	for k, v := range db.Range(lo, hi) { ... }  // [lo, hi)
//	it := db.NewIter(incll.IterOptions{})       // manual control
//	for ok := it.SeekGE(k); ok; ok = it.Next() { ... }
//	it.Close()
//
// Multi-key transactions (see internal/txn and DESIGN.md) are crash-atomic
// and durable at commit: a checksummed intent record, fenced once, plus
// the epoch machinery guarantee that a power failure at any instruction
// of Commit leaves either every write or none, even across shards. A
// commit waits only for commits that read or write one of its keys, or
// that run on the same worker.
//
//	t := db.Begin()
//	a, _ := t.Get(incll.Key(1))
//	t.Put(incll.Key(1), a-10)
//	t.Put(incll.Key(2), 10)
//	err := t.Commit()                   // durable now; ErrConflict = retry
package incll

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/core"
	"incll/internal/crashpoint"
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
	"incll/internal/repl"
	"incll/internal/shard"
	"incll/internal/txn"
)

// MaxShards is the largest supported Options.Shards. Clusters beyond 64
// shards leave the transaction manager's one-word shard-set fast path and
// pay a small per-commit allocation for the widened bitset; the ceiling
// itself only bounds resource sizing (the default per-shard heap is
// floored at 2^17 words, so very large counts multiply memory).
const MaxShards = 4096

// ErrTooManyShards reports Options.Shards above MaxShards. Open panics
// with it (wrapped); Options.Validate and DB.Reshard return it.
var ErrTooManyShards = errors.New("incll: Options.Shards exceeds MaxShards")

// MaxValueBytes is the largest byte value PutBytes accepts (the payload of
// the value heap's largest size class).
const MaxValueBytes = core.MaxValueBytes

// MaxKeyBytes is the largest key the validated API paths accept.
const MaxKeyBytes = core.MaxKeyBytes

// Size-limit errors, returned by the byte-value paths (PutBytes on DB,
// Handle and Batch) and — wrapped, but errors.Is-compatible — by
// Txn.Commit for oversized buffered writes.
var (
	// ErrValueTooLarge reports a value longer than MaxValueBytes.
	ErrValueTooLarge = core.ErrValueTooLarge
	// ErrKeyTooLarge reports a key longer than MaxKeyBytes.
	ErrKeyTooLarge = core.ErrKeyTooLarge
)

// Options sizes and parameterizes a DB.
type Options struct {
	// ArenaWords is the simulated NVM size of each shard's arena in 8-byte
	// words (default: exactly the heap plus the regions every shard
	// reserves beside it — its headers, allocator metadata, and each
	// worker's log and intent segments).
	ArenaWords uint64
	// Workers is the number of concurrent worker threads that will use
	// Handle(i) (default 1).
	Workers int
	// Shards partitions the keyspace across this many independent
	// store+arena shards (default 1, the paper's single store). More than
	// one shard checkpoints through a two-phase coordinated commit; one
	// shard commits through its own epoch header, with no coordinator.
	Shards int
	// HeapWords is the durable heap region size (default: half the arena
	// when ArenaWords is set, else 2^23 words divided across the shards,
	// at least 2^17 per shard).
	HeapWords uint64
	// LogSegWords is the per-worker external log segment (default 2^20,
	// or 2^16 when Shards > 1).
	LogSegWords uint64
	// TxnSegWords is the per-worker transaction intent segment (default
	// 2^14, or 2^12 when Shards > 1). Bounds the write-set bytes
	// one worker can commit per epoch.
	TxnSegWords uint64
	// EpochInterval is the checkpoint cadence used by StartCheckpointer
	// (default 64ms, the paper's setting).
	EpochInterval time.Duration
	// ChangeJournalBytes bounds the change journal's retained entry bytes
	// once a snapshot or change-stream subscriber is attached (default 32
	// MiB). A subscriber still behind a previous checkpoint's release
	// when the released backlog exceeds the budget is cut loose with
	// ErrStreamLost (a single oversized epoch never cuts a prompt
	// consumer, and a snapshot export or replica bootstrap in progress is
	// exempt up to a 4x grace ceiling); if the
	// unreleased volume itself outgrows the budget — a subscriber exists
	// but checkpoints are not running — every subscriber is cut and the
	// journal dropped, so memory stays bounded either way.
	ChangeJournalBytes uint64
	// FenceDelay emulates NVM write latency after each fence.
	FenceDelay time.Duration
	// PhaseSampleEvery sets the latency-attribution sampling period: one in
	// every N operations is timed phase by phase (tree descent, epoch wait,
	// commit-lock wait, fence stall, allocation — see DESIGN.md §12) and
	// exported as the incll_phase_seconds metric family. 0 means the default
	// (1 in 8); negative disables attribution entirely (the pre-attribution
	// hot path, zero overhead). Non-power-of-two periods round up.
	PhaseSampleEvery int
	// DisableInCLL turns off in-cache-line logging (the paper's LOGGING
	// ablation): strictly more external logging, same crash guarantees.
	DisableInCLL bool
}

// Validate checks the options without opening anything: today that is
// the shard-count ceiling (ErrTooManyShards). Open panics on the same
// conditions; DB.Reshard returns them.
func (o Options) Validate() error {
	if o.Shards > MaxShards {
		return fmt.Errorf("%w (%d > %d)", ErrTooManyShards, o.Shards, MaxShards)
	}
	return nil
}

func (o *Options) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.LogSegWords == 0 {
		o.LogSegWords = 1 << 20
		if o.Shards > 1 {
			o.LogSegWords = 1 << 16
		}
	}
	if o.TxnSegWords == 0 {
		o.TxnSegWords = 1 << 14
		if o.Shards > 1 {
			o.TxnSegWords = 1 << 12
		}
	}
	if o.ArenaWords == 0 {
		// The default heap splits 2^23 words across the shards, never below
		// 2^17 per shard, and the arena holds exactly that heap and the
		// regions Open reserves beside it, which grow with the workers.
		if o.HeapWords == 0 {
			o.HeapWords = max((1<<23)/uint64(o.Shards), 1<<17)
		}
		o.ArenaWords = core.ArenaWords(core.Config{
			Workers: o.Workers, LogSegWords: o.LogSegWords,
			TxnSegWords: o.TxnSegWords, HeapWords: o.HeapWords,
		})
	}
	if o.HeapWords == 0 {
		o.HeapWords = o.ArenaWords / 2
	}
	if o.EpochInterval == 0 {
		o.EpochInterval = 64 * time.Millisecond
	}
}

// ShardRecovery describes one shard's recovery.
type ShardRecovery struct {
	// Status is fresh-start, clean-restart, or crash-recovered.
	Status epoch.Status
	// LogEntriesApplied is the number of pre-images this shard replayed.
	LogEntriesApplied int
	// Epoch is the shard's running epoch after recovery; identical across
	// shards (the coordinated checkpoint's invariant).
	Epoch uint64
}

// RecoveryInfo describes what Open found.
type RecoveryInfo struct {
	// Status is fresh-start, clean-restart, or crash-recovered: the worst
	// outcome across shards.
	Status epoch.Status
	// LogEntriesApplied is the number of external-log pre-images replayed
	// (summed across shards).
	LogEntriesApplied int
	// FailedEpochs is the cumulative number of epochs that ever failed on
	// a shard's arena (the largest per-shard count).
	FailedEpochs int
	// TxnsReplayed is the number of committed transactions whose intent
	// records recovery re-applied (their commit outlived their epoch).
	TxnsReplayed int
	// Shards holds per-shard recovery detail: one entry per shard,
	// indexed by shard, including the single entry of a one-shard DB.
	Shards []ShardRecovery
}

// Iterator is the first-class read cursor: bidirectional, bounded, and
// checkpoint-friendly — it never pins the epoch machinery across more
// than one internal batch, so an arbitrarily long iteration cannot delay
// the 64 ms checkpoint tick (see DESIGN.md §8). Key and Value return
// slices valid until the next positioning call; copy to retain. Obtain
// one from DB.NewIter, Handle.NewIter, or Txn.NewIter, or use the
// range-over-func adapters (DB.All, DB.Range, DB.Iter, Txn.All). Open one
// per request: Close hands its storage to the worker's next NewIter, so
// the steady state allocates nothing — and a cursor must not be touched
// after Close.
type Iterator = core.Cursor

// IterOptions bounds and orients an Iterator: LowerBound (inclusive),
// UpperBound (exclusive), and Reverse (descending order for the
// range-over-func adapters; the manual Seek/Next/Prev surface is
// bidirectional regardless).
type IterOptions = core.IterOptions

// Handle is worker w's handle on a DB; see Options.Workers. Handles are
// not safe for concurrent use, but distinct handles are. The handle routes
// each key to its shard transparently, and it resolves the DB's live
// engine exactly once per operation, so it survives an online reshard:
// operations started before the cutover run against the donor (and are
// drained into its final checkpoint), operations after it run against the
// new shard set.
//
// Values are byte strings up to MaxValueBytes; values of at most five
// bytes live inline in the leaf. The uint64 methods are a view over the
// same store: Put(k, v) stores v's minimal big-endian encoding (inline
// whenever v < 2^40) and Get decodes the stored bytes back; GetBytes after
// Put(k, 258) returns {1, 2}. Get allocates nothing, nor does a Put of
// v < 2^40 over an existing key.
type Handle struct {
	db *DB
	w  int
}

// Get returns the uint64 view of the value stored under k.
func (h Handle) Get(k []byte) (uint64, bool) {
	return h.db.engine().shards.Handle(h.w).Get(k)
}

// GetBytes returns a copy of the byte value stored under k.
func (h Handle) GetBytes(k []byte) ([]byte, bool) {
	return h.db.engine().shards.Handle(h.w).GetBytes(k)
}

// AppendGet appends k's value bytes to dst: the allocation-free form of
// GetBytes.
func (h Handle) AppendGet(dst []byte, k []byte) ([]byte, bool) {
	return h.db.engine().shards.Handle(h.w).AppendGet(dst, k)
}

// Put stores v under k; reports whether k was newly inserted.
func (h Handle) Put(k []byte, v uint64) bool {
	e := h.db.writeEngine(h.w)
	defer e.release(h.w)
	return e.shards.Handle(h.w).Put(k, v)
}

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted, or ErrValueTooLarge / ErrKeyTooLarge.
func (h Handle) PutBytes(k []byte, v []byte) (bool, error) {
	if err := core.ValidateKV(k, v); err != nil {
		return false, err
	}
	e := h.db.writeEngine(h.w)
	defer e.release(h.w)
	return e.shards.Handle(h.w).PutBytes(k, v), nil
}

// Delete removes k; reports whether it was present.
func (h Handle) Delete(k []byte) bool {
	e := h.db.writeEngine(h.w)
	defer e.release(h.w)
	return e.shards.Handle(h.w).Delete(k)
}

// NewIter opens a cursor on this worker's handle: bidirectional
// (First/Last/SeekGE/SeekLT/Next/Prev), bounded by o, and
// checkpoint-friendly — the walk holds the epoch machinery only for one
// bounded batch at a time. With several shards the per-shard cursors are
// k-way merged, so iteration order is identical to a one-shard cursor. The
// cursor walks the engine it was opened on; across a reshard cutover it
// keeps reading the donor's frozen final checkpoint (a consistent
// committed snapshot).
func (h Handle) NewIter(o IterOptions) Iterator {
	return h.db.engine().shards.Handle(h.w).NewIter(o)
}

// Key renders a uint64 as an 8-byte big-endian key, so integer order
// equals key order.
func Key(v uint64) []byte { return core.EncodeUint64(v) }

// EncodeValue renders v as the canonical byte value the uint64 API stores
// (its minimal big-endian encoding).
func EncodeValue(v uint64) []byte { return core.EncodeValue(v) }

// DecodeValue is the uint64 view of a byte value — the big-endian decode
// of its first eight bytes, the exact inverse of EncodeValue. Useful with
// the range-over-func adapters, which yield byte values.
func DecodeValue(b []byte) uint64 { return core.DecodeValue(b) }

// engine is one topology epoch of a DB: the shard set and its options,
// bundled behind one atomic pointer so an online reshard can cut the whole
// bundle over in a single swap. Every operation resolves the live engine
// exactly once (DB.engine / DB.writeEngine) and runs against it start to
// finish; iterators opened on an engine keep walking it even across a
// cutover (the retired donor is frozen at its final checkpoint — a
// consistent committed snapshot).
type engine struct {
	topo   shard.Topology
	opts   Options      // post-defaults options this engine was sized with
	shards *shard.Store // N ≥ 1 shards (PutBytes panics on oversized input; the façade validates first)

	// wrefs[w] counts worker w's in-flight mutations on this engine. A
	// cutover first installs the gated barrier copy (so new writers wait),
	// then drains every stripe to zero before the donor's final
	// checkpoint — the write that slipped in last is still inside that
	// checkpoint, never stranded on a frozen donor.
	wrefs []wref

	// gate is non-nil only on the barrier copy a cutover installs for the
	// duration of the swap; engine()/writeEngine() wait on it and retry.
	gate chan struct{}
}

// wref is one worker's write-reference counter, padded to a cache line so
// concurrent workers do not false-share.
type wref struct {
	n atomic.Int64
	_ [7]uint64
}

// newEngine assembles an engine over an open shard set.
func newEngine(opts Options, s *shard.Store) *engine {
	return &engine{topo: s.Topology(), opts: opts, shards: s, wrefs: make([]wref, opts.Workers)}
}

// barrier returns the gated copy of e a cutover installs while swapping.
func (e *engine) barrier() *engine {
	g := *e
	g.gate = make(chan struct{})
	return &g
}

// drainWrites blocks until every in-flight mutation on e has completed.
// Callable only after the barrier copy is installed: from then on no new
// writer can pass the writeEngine recheck, so each stripe monotonically
// reaches zero.
func (e *engine) drainWrites() {
	for i := range e.wrefs {
		for e.wrefs[i].n.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// release drops a write reference taken by DB.writeEngine.
func (e *engine) release(w int) { e.wrefs[w].n.Add(-1) }

// epoch is the running epoch (identical across shards).
func (e *engine) epoch() uint64 { return e.shards.Epoch() }

// DB is a durable Masstree over simulated NVM: Options.Shards independent
// store+arena shards behind one API (one by default, the paper's single
// store). A checkpoint of several shards is a coordinated two-phase commit;
// a single shard's is its own epoch advance. DB.Reshard repartitions the
// keyspace online (see reshard.go and DESIGN.md §13).
//
// DB's single-key methods (Get, GetBytes, Put, PutBytes, Delete) and
// NewIter are Handle(0)'s: writes through them must not run concurrently
// with each other or with Handle(0)'s; give each concurrent writer its own
// Handle(i).
type DB struct {
	// eng is the live engine; swapped by Reshard's cutover. Resolve it
	// through DB.engine (reads) or DB.writeEngine (mutations) — never by
	// loading the pointer twice within one operation.
	eng      atomic.Pointer[engine]
	manifest *shard.Manifest // durable topology record: the reshard commit point
	txns     *txn.Manager

	// rawOpts is Options exactly as passed to Open, before defaults: a
	// reshard re-derives the target's per-shard sizing from it (the
	// post-defaults ArenaWords etc. are already divided by the old shard
	// count and must not be divided again).
	rawOpts Options

	// tel is the node's observability root (see metrics.go): shared by
	// every store generation of the node, so none of them re-arms it.
	tel *telemetry

	// Replication state (see replication.go): the change hub attaches
	// lazily on first Snapshot/Changes use and dies with this DB instance
	// — or with the donor topology at a reshard cutover (subscribers see
	// ErrStreamLost and re-bootstrap, exactly as after a primary crash).
	replMu  sync.Mutex
	replHub *repl.Hub

	// Reshard state (see reshard.go).
	reshardMu sync.Mutex
	rstate    reshardState

	// hook is the crash-injection hook of the snapshot and reshard
	// protocols (see internal/crashpoint); nil outside tests.
	hook atomic.Pointer[crashpoint.Hook]

	// Networked replication state (see replserve.go). closed makes
	// Close/SimulateCrash idempotent and lets late API calls fail fast;
	// netSrvs lists the servers streaming this DB, the newest last.
	closed  atomic.Bool
	netMu   sync.Mutex
	netSrvs []*ReplServer
}

func init() {
	crashpoint.Register(func(db any, h crashpoint.Hook) {
		if h == nil {
			db.(*DB).hook.Store(nil)
			return
		}
		db.(*DB).hook.Store(&h)
	})
}

// crashHook returns the installed crash-injection hook, or nil.
func (db *DB) crashHook() crashpoint.Hook {
	if h := db.hook.Load(); h != nil {
		return *h
	}
	return nil
}

// engine resolves the live engine for a read. During a cutover's swap
// window the gate blocks briefly; the returned engine is never gated.
func (db *DB) engine() *engine {
	for {
		e := db.eng.Load()
		if e.gate != nil {
			<-e.gate
			continue
		}
		return e
	}
}

// writeEngine resolves the live engine for a mutation on worker w and
// takes a write reference on it. The recheck after the increment closes
// the race with a concurrent cutover: if the swap won, the reference is
// dropped and the writer retries against the new engine — so a write can
// never land on a donor after its final checkpoint. Pair with release.
func (db *DB) writeEngine(w int) *engine {
	for {
		e := db.eng.Load()
		if e.gate != nil {
			<-e.gate
			continue
		}
		e.wrefs[w].n.Add(1)
		if db.eng.Load() == e {
			return e
		}
		e.wrefs[w].n.Add(-1)
	}
}

// newPhaseSet builds the attribution timer per Options.PhaseSampleEvery:
// nil when disabled (negative), otherwise one slot per worker.
func newPhaseSet(opts Options) *obs.PhaseSet {
	if opts.PhaseSampleEvery < 0 {
		return nil
	}
	every := opts.PhaseSampleEvery
	if every == 0 {
		every = obs.DefaultPhaseSample
	}
	return obs.NewPhaseSet(opts.Workers, every)
}

// shardConfig derives the shard.Config for opening a cluster with the
// given (post-defaults) options at a topology version, instrumented into
// the node's telemetry.
func shardConfig(opts Options, topoVersion uint64, tel *telemetry) shard.Config {
	return shard.Config{
		Shards:       opts.Shards,
		Workers:      opts.Workers,
		ArenaWords:   opts.ArenaWords,
		HeapWords:    opts.HeapWords,
		LogSegWords:  opts.LogSegWords,
		TxnSegWords:  opts.TxnSegWords,
		DisableInCLL: opts.DisableInCLL,
		TopoVersion:  topoVersion,
		NVM:          nvm.Config{FenceDelay: opts.FenceDelay},
		Trace:        tel.trace,
		StopTheWorld: tel.stw,
		Phases:       tel.phases,
	}
}

// Open creates a DB over fresh simulated NVM. Invalid options (see
// Options.Validate) panic with the wrapped typed error.
func Open(opts Options) (*DB, RecoveryInfo) {
	db, info := openGeneration(opts, nil)
	db.tel.gen.Store(db)
	return db, info
}

// openGeneration opens a DB over fresh simulated NVM as a store generation
// of the node tel — of a new node when tel is nil. The caller makes it the
// node's current generation.
func openGeneration(opts Options, tel *telemetry) (*DB, RecoveryInfo) {
	raw := opts
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	opts.setDefaults()
	if tel == nil {
		tel = newTelemetry(opts)
	}
	db := &DB{manifest: shard.NewManifest(opts.FenceDelay, 1, opts.Shards), rawOpts: raw, tel: tel}
	s, sinfo := shard.Open(shardConfig(opts, 1, tel))
	return db.start(opts, s, sinfo)
}

// start installs the opened (or recovered) shard set as db's engine and
// builds the transaction manager over it, running intent recovery.
func (db *DB) start(opts Options, s *shard.Store, si shard.RecoveryInfo) (*DB, RecoveryInfo) {
	db.eng.Store(newEngine(opts, s))
	info := shardInfo(si)
	db.txns, info.TxnsReplayed = txn.ForCluster(s)
	db.txns.Instrument(db.tel.phases)
	if info.TxnsReplayed > 0 {
		db.tel.trace.Record(obs.EvTxnReplay, -1, db.currentEpoch(), 0, int64(info.TxnsReplayed))
	}
	return db, info
}

// currentEpoch is the running epoch (identical across shards).
func (db *DB) currentEpoch() uint64 { return db.engine().epoch() }

// shardInfo converts the shard package's merged recovery info.
func shardInfo(si shard.RecoveryInfo) RecoveryInfo {
	info := RecoveryInfo{
		Status:            si.Status,
		LogEntriesApplied: si.LogEntriesApplied,
		FailedEpochs:      si.FailedEpochs,
		Shards:            make([]ShardRecovery, len(si.Shards)),
	}
	for i, sr := range si.Shards {
		info.Shards[i] = ShardRecovery{
			Status:            sr.Status,
			LogEntriesApplied: sr.LogEntriesApplied,
			Epoch:             sr.Epoch,
		}
	}
	return info
}

// Handle returns worker i's handle (i < Options.Workers). The handle
// resolves the live engine per operation, so it stays valid across an
// online reshard.
func (db *DB) Handle(i int) Handle { return Handle{db: db, w: i} }

// Shards returns the shard count (1 unless Options.Shards or a reshard
// said otherwise).
func (db *DB) Shards() int { return db.engine().topo.Shards }

// TopoVersion returns the live topology version (1 until the first
// completed reshard; see DB.Reshard).
func (db *DB) TopoVersion() uint64 { return db.engine().topo.Version }

// Get returns the uint64 view of the value stored under k.
func (db *DB) Get(k []byte) (uint64, bool) { return db.Handle(0).Get(k) }

// GetBytes returns a copy of the byte value stored under k.
func (db *DB) GetBytes(k []byte) ([]byte, bool) { return db.Handle(0).GetBytes(k) }

// Put stores v under k; reports whether k was newly inserted. It runs on
// worker 0's handle, which is single-writer: Put, PutBytes and Delete must
// not be called concurrently with one another. Concurrent writers each
// take their own worker with Handle(i).
func (db *DB) Put(k []byte, v uint64) bool { return db.Handle(0).Put(k, v) }

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted, or ErrValueTooLarge / ErrKeyTooLarge for oversized input. Like
// Put it runs on worker 0 and must not run concurrently with another DB
// write; see Handle(i).
func (db *DB) PutBytes(k []byte, v []byte) (bool, error) { return db.Handle(0).PutBytes(k, v) }

// Delete removes k; reports whether it was present. Like Put it runs on
// worker 0 and must not run concurrently with another DB write; see
// Handle(i).
func (db *DB) Delete(k []byte) bool { return db.Handle(0).Delete(k) }

// NewIter opens a cursor over the DB on worker 0's handle; see
// Handle.NewIter. Concurrent workers should open their own cursor via
// Handle(i).NewIter.
func (db *DB) NewIter(o IterOptions) Iterator { return db.Handle(0).NewIter(o) }

// All is the range-over-func view of the whole DB in ascending key order:
//
//	for k, v := range db.All() { ... }
//
// The yielded slices are only valid for that iteration step; copy to
// retain. The sequence can be ranged over multiple times (each range
// opens a fresh cursor).
func (db *DB) All() iter.Seq2[[]byte, []byte] { return db.Iter(IterOptions{}) }

// Range is the range-over-func view of keys in [lo, hi) in ascending key
// order; nil bounds are open ends.
func (db *DB) Range(lo, hi []byte) iter.Seq2[[]byte, []byte] {
	return db.Iter(IterOptions{LowerBound: lo, UpperBound: hi})
}

// Iter is the range-over-func form of NewIter, honouring o.Reverse:
//
//	for k, v := range db.Iter(incll.IterOptions{Reverse: true}) { ... }
func (db *DB) Iter(o IterOptions) iter.Seq2[[]byte, []byte] {
	return cursorSeq(func() Iterator { return db.NewIter(o) }, o.Reverse)
}

// cursorSeq adapts a cursor constructor into a (re-rangeable) sequence.
func cursorSeq(open func() Iterator, reverse bool) iter.Seq2[[]byte, []byte] {
	return func(yield func(k, v []byte) bool) {
		it := open()
		defer it.Close()
		if reverse {
			for ok := it.Last(); ok; ok = it.Prev() {
				if !yield(it.Key(), it.Value()) {
					return
				}
			}
			return
		}
		for ok := it.First(); ok; ok = it.Next() {
			if !yield(it.Key(), it.Value()) {
				return
			}
		}
	}
}

// Len returns the number of live keys tracked this execution (transient;
// call RebuildLen after a restart if an exact count is needed).
func (db *DB) Len() int {
	return db.engine().shards.Len()
}

// RebuildLen recomputes Len with one full scan.
func (db *DB) RebuildLen() int {
	return db.engine().shards.RebuildLen()
}

// Checkpoint ends the current epoch: quiesces workers, flushes the cache,
// and commits everything written so far. Returns the number of cache
// lines flushed. Equivalent to one tick of the background checkpointer.
// With several shards this is the coordinated two-phase global checkpoint.
// Excluded against in-flight transaction commits.
func (db *DB) Checkpoint() int {
	return db.txns.Advance()
}

// StartCheckpointer begins advancing epochs every Options.EpochInterval
// in the background, like the paper's 64 ms timer (cluster-wide, and
// always excluded against transaction commits).
func (db *DB) StartCheckpointer() {
	db.txns.StartTicker(db.engine().opts.EpochInterval)
}

// StopCheckpointer stops the background checkpointer.
func (db *DB) StopCheckpointer() {
	db.txns.StopTicker()
}

// Close checkpoints and durably marks a clean shutdown. Change-stream
// subscribers drain the final epoch and then observe ErrStreamClosed;
// networked followers receive the complete stream through the final
// epoch and then a clean goodbye. Idempotent: concurrent or repeated
// calls after the first are no-ops.
//
// Ordering matters here: replication listeners stop accepting first (no
// new subscribers can race the shutdown), then the store's shutdown
// checkpoint commits and the hub releases the final epoch — and only
// after that are the peer connections drained and torn down, so the
// final epoch is released before listener teardown and every live
// follower sees it.
func (db *DB) Close() {
	if !db.closed.CompareAndSwap(false, true) {
		return
	}
	srvs := db.replServers()
	for _, rs := range srvs {
		rs.srv.StopAccepting()
	}
	db.stopNodeRecorder()
	db.txns.StopTicker()
	db.engine().shards.Shutdown()
	db.closeHub(true)
	for _, rs := range srvs {
		rs.srv.Drain(5 * time.Second)
		rs.srv.Close()
	}
}

// SimulateCrash injects a power failure: each dirty cache line survives
// with probability persistFraction, everything else is lost, and the DB
// becomes unusable until Reopen. Every shard arena crashes together
// (independent per-shard survival policies derived from seed). All
// handles must be quiescent.
func (db *DB) SimulateCrash(persistFraction float64, seed int64) {
	if !db.closed.CompareAndSwap(false, true) {
		return
	}
	for _, rs := range db.replServers() {
		rs.srv.Close() // a crash kills connections hard: no drain, no goodbye
	}
	db.stopNodeRecorder()
	db.txns.StopTicker()
	db.closeHub(false) // the volatile journal dies with the process
	db.manifest.Crash(persistFraction, seed)
	db.engine().shards.SimulateCrash(persistFraction, seed)
}

// Reopen recovers the DB from the arena contents after SimulateCrash (or
// after Close, to model a clean restart). Recovery runs per shard in
// parallel, after first revalidating the durable topology manifest:
// the arena set being reopened must be the one the manifest says is live
// (a crash on either side of a reshard cutover leaves exactly one side
// both durable and named by the manifest — see DESIGN.md §13).
func (db *DB) Reopen() (*DB, RecoveryInfo) {
	e := db.engine()
	if want := db.manifest.Recover(); !want.Equal(e.topo) {
		panic(fmt.Sprintf("incll: durable topology manifest %+v does not name the open engine's topology %+v", want, e.topo))
	}
	// The shard config — the node's tracer included — carries over, so
	// the phase trace spans the crash: the recovery events land in the
	// same ring the pre-crash checkpoints did.
	s, sinfo := e.shards.Reopen()
	db2 := &DB{manifest: db.manifest, rawOpts: db.rawOpts, tel: db.tel}
	db2, info := db2.start(e.opts, s, sinfo)
	db.tel.gen.Store(db2)
	return db2, info
}

// stopNodeRecorder stops the node's metric recorder when db is the node's
// current store generation; a retired generation closing (a follower's
// previous bootstrap) leaves it running.
func (db *DB) stopNodeRecorder() {
	if db.tel.gen.Load() == db {
		db.StopRecorder()
	}
}

// Stats returns the counters (logging, InCLL usage, the value heap,
// recovery) as a point-in-time aggregate across shards, built fresh by
// each call: equal to the sum of ShardStats(i) over all shards when
// writers are quiescent. Call Stats again for fresh values; ShardStats is
// the live per-shard view. Safe at any time, concurrently with writers and
// the background checkpointer; each counter is a sum over per-worker
// stripes, so it is monotone but not one atomic snapshot across counters.
// Prefer DB.Metrics for a coherent typed snapshot.
func (db *DB) Stats() *core.Stats { return db.engine().shards.Stats() }

// ShardStats returns shard i's live counters (i < Shards()): the struct
// the shard's workers update, so later loads see later values.
func (db *DB) ShardStats(i int) *core.Stats {
	return db.engine().shards.ShardStore(i).Stats()
}

// NVMStats exposes the simulated memory subsystem's counters (writebacks,
// fences, flushed lines, crash outcomes), summed across every arena: the
// shards' and, with more than one shard, the checkpoint coordinator's.
func (db *DB) NVMStats() nvm.StatsSnapshot { return db.engine().shards.NVMStats() }

// ---- transactions ----

// ErrConflict is returned by Txn.Commit when a validated read changed
// since the transaction observed it; rebuild the transaction and retry.
var ErrConflict = txn.ErrConflict

// Txn is a crash-atomic multi-key transaction: writes are buffered and
// applied atomically at Commit, reads are cached and validated at Commit
// (optimistic concurrency). A successful Commit is durable immediately —
// unlike single-key operations, it does not wait for the next checkpoint.
// A Txn belongs to the worker that began it; one live Txn per worker.
//
// A Txn is recycled, like a closed cursor: Commit and Abort hand it back
// to its worker, and that worker's next Begin reuses it. Drop the *Txn
// after Commit or Abort. Using it again panics until the worker begins
// its next transaction; after that, it is that transaction. A cursor from
// Txn.NewIter owns its data and stays valid until it is closed.
//
// Commits are ordered by key: two commits exclude each other only if one
// reads or writes a key the other writes or reads — or if they run on the
// same worker, whose log segments and allocator lists are single-writer.
// Begin and Apply run on worker 0 whoever calls them, so their commits
// serialize; give concurrent clients a worker each with BeginWorker.
type Txn txn.Txn

// Begin starts a transaction on worker 0.
func (db *DB) Begin() *Txn { return db.BeginWorker(0) }

// BeginWorker starts a transaction on worker i (i < Options.Workers). It
// reuses the Txn worker i committed or aborted last, so a *Txn from an
// earlier BeginWorker(i) must not be used once this one is returned.
func (db *DB) BeginWorker(i int) *Txn { return (*Txn)(db.txns.Begin(i)) }

func (t *Txn) inner() *txn.Txn { return (*txn.Txn)(t) }

// Get reads the uint64 view of k: the transaction's own pending write if
// any, else a cached prior read, else the store.
func (t *Txn) Get(k []byte) (uint64, bool) { return t.inner().Get(k) }

// GetBytes is Get returning a copy of the byte value.
func (t *Txn) GetBytes(k []byte) ([]byte, bool) { return t.inner().GetBytes(k) }

// Put buffers a write of v under k.
func (t *Txn) Put(k []byte, v uint64) { t.inner().Put(k, v) }

// PutBytes buffers a write of the byte value v under k. An oversized key
// or value poisons the transaction: Commit returns an error satisfying
// errors.Is(err, ErrValueTooLarge) or errors.Is(err, ErrKeyTooLarge).
func (t *Txn) PutBytes(k []byte, v []byte) { t.inner().PutBytes(k, v) }

// Delete buffers a deletion of k.
func (t *Txn) Delete(k []byte) { t.inner().Delete(k) }

// NewIter opens a cursor over the transaction's view of the store: the
// committed state with the transaction's own pending writes overlaid —
// buffered puts are visible, buffered deletes hide store keys. The write
// set is snapshotted at call time. Iterated entries are not added to the
// read set (Commit validates point reads only; no phantom protection).
func (t *Txn) NewIter(o IterOptions) Iterator { return t.inner().NewIter(o) }

// All is the range-over-func view of the transaction's overlaid state in
// ascending key order; see DB.All.
func (t *Txn) All() iter.Seq2[[]byte, []byte] { return t.Iter(IterOptions{}) }

// Iter is the range-over-func form of Txn.NewIter, honouring o.Reverse.
func (t *Txn) Iter(o IterOptions) iter.Seq2[[]byte, []byte] {
	return cursorSeq(func() Iterator { return t.NewIter(o) }, o.Reverse)
}

// Commit atomically applies the write set; nil means durably committed,
// ErrConflict means a validated read changed (retry). The Txn goes back
// to its worker whatever the result.
func (t *Txn) Commit() error { return t.inner().Commit() }

// Abort discards the transaction and hands the Txn back to its worker.
func (t *Txn) Abort() { t.inner().Abort() }

// Batch is a one-shot atomic write set for DB.Apply.
type Batch struct {
	ops []batchOp
	err error // sticky size-limit error, reported by Apply
}

type batchOp struct {
	k   []byte
	v   []byte
	del bool
}

// Put adds a write of v under k to the batch.
func (b *Batch) Put(k []byte, v uint64) {
	b.PutBytes(k, core.EncodeValue(v))
}

// PutBytes adds a write of the byte value v under k to the batch. An
// oversized key or value poisons the batch: Apply returns
// ErrValueTooLarge / ErrKeyTooLarge.
func (b *Batch) PutBytes(k []byte, v []byte) {
	if err := core.ValidateKV(k, v); err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	b.ops = append(b.ops, batchOp{
		k: append([]byte(nil), k...),
		v: append([]byte(nil), v...),
	})
}

// Delete adds a deletion of k to the batch.
func (b *Batch) Delete(k []byte) {
	if err := core.ValidateKV(k, nil); err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	b.ops = append(b.ops, batchOp{k: append([]byte(nil), k...), del: true})
}

// Apply commits the batch as one crash-atomic, immediately durable
// transaction on worker 0.
func (db *DB) Apply(b *Batch) error {
	if b.err != nil {
		return b.err
	}
	t := db.txns.Begin(0)
	for _, op := range b.ops {
		if op.del {
			t.Delete(op.k)
		} else {
			t.PutBytes(op.k, op.v)
		}
	}
	return t.Commit()
}

// TxnStats reports transaction counters for this execution.
type TxnStats struct {
	// Committed is the number of transactions whose Commit succeeded.
	Committed int64
	// Conflicts is the number of commits rejected by read validation.
	Conflicts int64
	// Replayed is the number of committed transactions recovery re-applied
	// at the last Open/Reopen.
	Replayed int64
	// Stale is the number of intent records recovery skipped because they
	// committed under a topology a reshard has since retired.
	Stale int64
}

// TxnStats returns the transaction counters.
func (db *DB) TxnStats() TxnStats {
	s := db.txns.Stats()
	return TxnStats{
		Committed: s.Committed.Load(),
		Conflicts: s.Conflicts.Load(),
		Replayed:  s.Replays.Load(),
		Stale:     s.Stale.Load(),
	}
}
