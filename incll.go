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
// (PutBytes/GetBytes/ScanBytes), stored on a crash-consistent value heap;
// values of at most five bytes live inline in the tree leaf. The uint64
// methods are a view over the same store (see Handle), and small uint64s
// take the inline, allocation-free fast path.
//
// For scale-out, Options.Shards > 1 partitions the keyspace across N
// independent store+arena shards behind the same API (see internal/shard
// and DESIGN.md): a deterministic router places each key, scans k-way
// merge the shards back into one ordered stream, and Checkpoint becomes a
// coordinated two-phase epoch advance that commits a single global epoch
// record — a crash never exposes one shard at epoch k and another at k−1.
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
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
	"incll/internal/repl"
	"incll/internal/replnet"
	"incll/internal/shard"
	"incll/internal/txn"
)

// MaxShards is the largest supported Options.Shards. Clusters beyond 64
// shards leave the transaction manager's one-word shard-set fast path and
// pay a small per-commit allocation for the widened bitset; the ceiling
// itself only bounds resource sizing (per-shard arenas are floored at
// minShardArenaWords, so very large counts multiply memory).
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

// minShardArenaWords floors the shard-divided default arena size so a
// large shard count cannot underflow the per-shard regions.
const minShardArenaWords = 1 << 18

// Options sizes and parameterizes a DB.
type Options struct {
	// ArenaWords is the simulated NVM size in 8-byte words (default 2^24,
	// i.e. 128 MiB of simulated NVM). With Shards > 1 this is the size of
	// each shard's arena.
	ArenaWords uint64
	// Workers is the number of concurrent worker threads that will use
	// Handle(i) (default 1).
	Workers int
	// Shards partitions the keyspace across this many independent
	// store+arena shards with coordinated global checkpoints (default 1,
	// a single store).
	Shards int
	// HeapWords is the durable heap region size (default: half the arena).
	HeapWords uint64
	// LogSegWords is the per-worker external log segment (default 2^20,
	// or 2^16 per shard when sharded).
	LogSegWords uint64
	// TxnSegWords is the per-worker transaction intent segment (default
	// 2^14, or 2^12 per shard when sharded). Bounds the write-set bytes
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
	if o.ArenaWords == 0 {
		o.ArenaWords = 1 << 24
		if o.Shards > 1 {
			// Keep the default cluster footprint near the single-store
			// default by splitting it across shards, but never divide the
			// per-shard arena below a floor that still fits the epoch
			// header, allocator metadata, log segments, and a usable heap.
			o.ArenaWords = (1 << 24) / uint64(o.Shards)
			if o.ArenaWords < minShardArenaWords {
				o.ArenaWords = minShardArenaWords
			}
		}
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.HeapWords == 0 {
		o.HeapWords = o.ArenaWords / 2
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
	if o.EpochInterval == 0 {
		o.EpochInterval = 64 * time.Millisecond
	}
}

// ShardRecovery describes one shard's recovery in a sharded DB.
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
	// Status is fresh-start, clean-restart, or crash-recovered (for a
	// sharded DB, the worst outcome across shards).
	Status epoch.Status
	// LogEntriesApplied is the number of external-log pre-images replayed
	// (summed across shards).
	LogEntriesApplied int
	// FailedEpochs is the cumulative number of epochs that ever failed on
	// this arena (for a sharded DB, the largest per-shard count).
	FailedEpochs int
	// TxnsReplayed is the number of committed transactions whose intent
	// records recovery re-applied (their commit outlived their epoch).
	TxnsReplayed int
	// Shards holds per-shard recovery detail; nil for an unsharded DB.
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

// Handle is a per-worker handle; see Options.Workers. Handles are not safe
// for concurrent use, but distinct handles are. In a sharded DB the handle
// routes each key to its shard transparently.
//
// Values are byte strings up to MaxValueBytes; values of at most five
// bytes live inline in the leaf. The uint64 methods are a view over the
// same store: Put(k, v) stores v's minimal big-endian encoding (inline —
// and allocation-free — whenever v < 2^40) and Get decodes the stored
// bytes back; GetBytes after Put(k, 258) returns {1, 2}.
type Handle interface {
	// Get returns the uint64 view of the value stored under k.
	Get(k []byte) (uint64, bool)
	// GetBytes returns a copy of the byte value stored under k.
	GetBytes(k []byte) ([]byte, bool)
	// AppendGet appends k's value bytes to dst: the allocation-free form
	// of GetBytes.
	AppendGet(dst []byte, k []byte) ([]byte, bool)
	// Put stores v under k; reports whether k was newly inserted.
	Put(k []byte, v uint64) bool
	// PutBytes stores the byte value v under k; reports whether k was
	// newly inserted, or ErrValueTooLarge / ErrKeyTooLarge.
	PutBytes(k []byte, v []byte) (bool, error)
	// Delete removes k; reports whether it was present.
	Delete(k []byte) bool
	// NewIter opens a cursor on this worker's handle.
	NewIter(o IterOptions) Iterator
	// Scan visits up to max keys ≥ start in ascending order (max < 0
	// means unlimited), until fn returns false. Returns the number
	// visited. A thin wrapper over NewIter, kept for compatibility.
	Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int
	// ScanBytes is Scan delivering byte values; the key and value slices
	// are only valid during the callback.
	ScanBytes(start []byte, max int, fn func(k, v []byte) bool) int
}

// rawHandle is the worker surface the store layers implement (their
// PutBytes panics on oversized input; the façade validates first).
type rawHandle interface {
	Get(k []byte) (uint64, bool)
	GetBytes(k []byte) ([]byte, bool)
	AppendGet(dst []byte, k []byte) ([]byte, bool)
	Put(k []byte, v uint64) bool
	PutBytes(k []byte, v []byte) bool
	Delete(k []byte) bool
	NewIter(o IterOptions) Iterator
}

// dynHandle is the validated façade handle for one worker. Every
// operation resolves the DB's live engine exactly once, so the handle
// survives an online reshard: operations started before the cutover run
// against the donor (and are drained into its final checkpoint),
// operations after it run against the new shard set.
type dynHandle struct {
	db *DB
	w  int
}

// Get returns the uint64 view of the value stored under k.
func (h *dynHandle) Get(k []byte) (uint64, bool) {
	return h.db.engine().handles[h.w].Get(k)
}

// GetBytes returns a copy of the byte value stored under k.
func (h *dynHandle) GetBytes(k []byte) ([]byte, bool) {
	return h.db.engine().handles[h.w].GetBytes(k)
}

// AppendGet appends k's value bytes to dst: the allocation-free form of
// GetBytes.
func (h *dynHandle) AppendGet(dst []byte, k []byte) ([]byte, bool) {
	return h.db.engine().handles[h.w].AppendGet(dst, k)
}

// Put stores v under k; reports whether k was newly inserted.
func (h *dynHandle) Put(k []byte, v uint64) bool {
	e := h.db.writeEngine(h.w)
	defer e.release(h.w)
	return e.handles[h.w].Put(k, v)
}

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted, or ErrValueTooLarge / ErrKeyTooLarge.
func (h *dynHandle) PutBytes(k []byte, v []byte) (bool, error) {
	if err := core.ValidateKV(k, v); err != nil {
		return false, err
	}
	e := h.db.writeEngine(h.w)
	defer e.release(h.w)
	return e.handles[h.w].PutBytes(k, v), nil
}

// Delete removes k; reports whether it was present.
func (h *dynHandle) Delete(k []byte) bool {
	e := h.db.writeEngine(h.w)
	defer e.release(h.w)
	return e.handles[h.w].Delete(k)
}

// NewIter opens a cursor on this worker's handle. The cursor walks the
// engine it was opened on; across a reshard cutover it keeps reading the
// donor's frozen final checkpoint (a consistent committed snapshot).
func (h *dynHandle) NewIter(o IterOptions) Iterator {
	return h.db.engine().handles[h.w].NewIter(o)
}

// Scan visits up to max keys ≥ start in ascending order (max < 0 means
// unlimited), until fn returns false. Returns the number visited.
func (h *dynHandle) Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int {
	it := h.NewIter(IterOptions{})
	n := 0
	for ok := it.SeekGE(start); ok && n != max; ok = it.Next() {
		n++
		if !fn(it.Key(), it.ValueUint64()) {
			break
		}
	}
	it.Close()
	return n
}

// ScanBytes is Scan delivering byte values; the key and value slices are
// only valid during the callback.
func (h *dynHandle) ScanBytes(start []byte, max int, fn func(k, v []byte) bool) int {
	it := h.NewIter(IterOptions{})
	n := 0
	for ok := it.SeekGE(start); ok && n != max; ok = it.Next() {
		n++
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	it.Close()
	return n
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

// engine is one topology epoch of a DB: the store(s), their options, and
// the per-worker handles, bundled behind one atomic pointer so an online
// reshard can cut the whole bundle over in a single swap. Every operation
// resolves the live engine exactly once (DB.engine / DB.writeEngine) and
// runs against it start to finish; iterators opened on an engine keep
// walking it even across a cutover (the retired donor is frozen at its
// final checkpoint — a consistent committed snapshot).
type engine struct {
	topo    shard.Topology
	opts    Options      // post-defaults options this engine was sized with
	arena   *nvm.Arena   // single-store mode
	store   *core.Store  // single-store mode
	sharded *shard.Store // sharded mode
	handles []rawHandle  // per-worker raw handles, prebuilt

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

// newEngine assembles an engine over an open store set (exactly one of
// store/sharded non-nil; arena accompanies store).
func newEngine(opts Options, arena *nvm.Arena, store *core.Store, sharded *shard.Store) *engine {
	e := &engine{
		opts:    opts,
		arena:   arena,
		store:   store,
		sharded: sharded,
		handles: make([]rawHandle, opts.Workers),
		wrefs:   make([]wref, opts.Workers),
	}
	if sharded != nil {
		e.topo = sharded.Topology()
		for i := range e.handles {
			e.handles[i] = sharded.Handle(i)
		}
	} else {
		e.topo = shard.Topology{Version: 1, Shards: 1}
		for i := range e.handles {
			e.handles[i] = store.Handle(i)
		}
	}
	return e
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

// stores returns the per-shard core stores (length 1 when unsharded).
func (e *engine) stores() []*core.Store {
	if e.sharded != nil {
		return e.sharded.Stores()
	}
	return []*core.Store{e.store}
}

// advanceRaw runs one cluster-wide epoch advance directly, bypassing the
// transaction manager's commit guard — for callers that already hold it
// (the reshard cutover) or predate it (recovery).
func (e *engine) advanceRaw() int {
	if e.sharded != nil {
		return e.sharded.Advance()
	}
	return e.store.Advance()
}

// epoch is the running epoch (identical across shards).
func (e *engine) epoch() uint64 { return e.stores()[0].Epochs().Current() }

// seal permanently retires the engine after a reshard cutover: tickers
// stop and any further epoch advance on its stores panics. The frozen
// state stays readable for cursors that were opened before the cutover.
func (e *engine) seal() {
	if e.sharded != nil {
		e.sharded.Seal()
		return
	}
	e.store.StopTicker()
	e.store.Epochs().Seal()
}

// DB is a durable Masstree over simulated NVM: one store over one arena,
// or — with Options.Shards > 1 — N independent shards behind the same API
// with coordinated cross-shard checkpoints. DB.Reshard repartitions the
// keyspace online (see reshard.go and DESIGN.md §13).
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

	// Observability (see metrics.go and internal/obs): the phase tracer
	// and the checkpoint stop-the-world histogram are created before the
	// stores open, so recovery itself is captured; the registry that
	// serves WriteMetrics builds lazily on first use and is rebuilt after
	// a reshard (its per-shard gauges are bound to a topology).
	trace    *obs.Tracer
	stw      *obs.Histogram
	phases   *obs.PhaseSet // sampled latency attribution; nil when disabled
	regMu    sync.Mutex
	reg      *obs.Registry
	extraReg []func(*obs.Registry) // replica gauges etc., replayed on rebuild

	// Recorder state (see metrics.go): the periodic registry snapshotter
	// behind MetricsHistory, started on demand; recreated against the
	// rebuilt registry after a reshard.
	recMu       sync.Mutex
	recorder    *obs.Recorder
	recOn       bool
	recInterval time.Duration
	recCap      int

	// Replication state (see replication.go): the change hub attaches
	// lazily on first Snapshot/Changes use and dies with this DB instance
	// — or with the donor topology at a reshard cutover (subscribers see
	// ErrStreamLost and re-bootstrap, exactly as after a primary crash).
	replMu   sync.Mutex
	replHub  *repl.Hub
	snapHook func(point string) error // crash-injection test hook

	// Reshard state (see reshard.go).
	reshardMu   sync.Mutex
	reshardHook func(point string) error // crash-injection test hook
	rstate      reshardState

	// Networked replication state (see replserve.go). closed makes
	// Close/SimulateCrash idempotent and lets late API calls fail fast;
	// the netCur pointer is what the once-registered incll_replnet_*
	// gauges read through, so a stopped or replaced server reports zeros
	// instead of dangling.
	closed      atomic.Bool
	netMu       sync.Mutex
	netSrvs     []*ReplServer
	netPeerIDs  map[string]bool
	netGaugesOn bool
	netCur      atomic.Pointer[replnet.Server]
	netRTT      *obs.Histogram

	// propTL is the epoch propagation timeline (DESIGN.md §15), created
	// lazily on first use and DB-owned like netRTT: the stage and
	// per-peer commit-to-apply histograms survive server re-serves and
	// follower reconnects.
	propTL atomic.Pointer[obs.EpochTimeline]
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
// given (post-defaults) options at a topology version.
func shardConfig(opts Options, topoVersion uint64, trace *obs.Tracer, stw *obs.Histogram, phases *obs.PhaseSet) shard.Config {
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
		Trace:        trace,
		StopTheWorld: stw,
		Phases:       phases,
	}
}

// Open creates a DB over fresh simulated NVM. Invalid options (see
// Options.Validate) panic with the wrapped typed error.
func Open(opts Options) (*DB, RecoveryInfo) {
	raw := opts
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	opts.setDefaults()
	manifest := shard.NewManifest(opts.FenceDelay, 1, opts.Shards)
	if opts.Shards > 1 {
		trace := obs.NewTracer(obs.DefaultTraceEvents)
		stw := new(obs.Histogram)
		phases := newPhaseSet(opts)
		s, sinfo := shard.Open(shardConfig(opts, 1, trace, stw, phases))
		db := &DB{manifest: manifest, rawOpts: raw, trace: trace, stw: stw, phases: phases}
		db.eng.Store(newEngine(opts, nil, nil, s))
		info := shardInfo(sinfo)
		info.TxnsReplayed = db.initTxns()
		db.traceTxnReplay(info.TxnsReplayed)
		return db, info
	}
	arena := nvm.New(nvm.Config{Words: opts.ArenaWords, FenceDelay: opts.FenceDelay})
	return attach(arena, opts, raw, manifest, nil, nil, nil)
}

// attach opens a single store over an existing arena. A nil trace builds a
// fresh observability bundle (first Open); Reopen passes the crashed DB's
// so the phase trace — and the attribution histograms — span the crash.
func attach(arena *nvm.Arena, opts Options, raw Options, manifest *shard.Manifest, trace *obs.Tracer, stw *obs.Histogram, phases *obs.PhaseSet) (*DB, RecoveryInfo) {
	if trace == nil {
		trace = obs.NewTracer(obs.DefaultTraceEvents)
		stw = new(obs.Histogram)
		phases = newPhaseSet(opts)
	}
	store, status := core.Open(arena, core.Config{
		Workers:      opts.Workers,
		LogSegWords:  opts.LogSegWords,
		TxnSegWords:  opts.TxnSegWords,
		HeapWords:    opts.HeapWords,
		DisableInCLL: opts.DisableInCLL,
		Trace:        trace,
		StopTheWorld: stw,
		Phases:       phases,
		Shard:        0,
	})
	db := &DB{manifest: manifest, rawOpts: raw, trace: trace, stw: stw, phases: phases}
	db.eng.Store(newEngine(opts, arena, store, nil))
	info := RecoveryInfo{
		Status:            status,
		LogEntriesApplied: store.RecoveredLogEntries(),
		FailedEpochs:      store.Epochs().FailedCount(),
	}
	info.TxnsReplayed = db.initTxns()
	db.traceTxnReplay(info.TxnsReplayed)
	return db, info
}

// traceTxnReplay records the intent-recovery replay in the phase trace.
func (db *DB) traceTxnReplay(n int) {
	if n > 0 {
		db.trace.Record(obs.EvTxnReplay, -1, db.currentEpoch(), 0, int64(n))
	}
}

// currentEpoch is the running epoch (identical across shards).
func (db *DB) currentEpoch() uint64 { return db.engine().epoch() }

// initTxns builds the transaction manager over the open store(s), running
// intent recovery; returns the number of transactions replayed.
func (db *DB) initTxns() int {
	e := db.eng.Load()
	var replayed int
	if e.sharded != nil {
		db.txns, replayed = txn.ForCluster(e.sharded)
	} else {
		db.txns, replayed = txn.ForStore(e.store)
	}
	db.txns.Instrument(db.phases)
	return replayed
}

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
func (db *DB) Handle(i int) Handle { return &dynHandle{db: db, w: i} }

// Shards returns the shard count (1 for an unsharded DB).
func (db *DB) Shards() int { return db.engine().topo.Shards }

// TopoVersion returns the live topology version (1 until the first
// completed reshard; see DB.Reshard).
func (db *DB) TopoVersion() uint64 { return db.engine().topo.Version }

// Get returns the uint64 view of the value stored under k.
func (db *DB) Get(k []byte) (uint64, bool) {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.Get(k)
	}
	return e.store.Get(k)
}

// GetBytes returns a copy of the byte value stored under k.
func (db *DB) GetBytes(k []byte) ([]byte, bool) {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.GetBytes(k)
	}
	return e.store.GetBytes(k)
}

// Put stores v under k; reports whether k was newly inserted.
func (db *DB) Put(k []byte, v uint64) bool {
	e := db.writeEngine(0)
	defer e.release(0)
	if e.sharded != nil {
		return e.sharded.Put(k, v)
	}
	return e.store.Put(k, v)
}

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted, or ErrValueTooLarge / ErrKeyTooLarge for oversized input.
func (db *DB) PutBytes(k []byte, v []byte) (bool, error) {
	if err := core.ValidateKV(k, v); err != nil {
		return false, err
	}
	e := db.writeEngine(0)
	defer e.release(0)
	if e.sharded != nil {
		return e.sharded.PutBytes(k, v), nil
	}
	return e.store.PutBytes(k, v), nil
}

// Delete removes k; reports whether it was present.
func (db *DB) Delete(k []byte) bool {
	e := db.writeEngine(0)
	defer e.release(0)
	if e.sharded != nil {
		return e.sharded.Delete(k)
	}
	return e.store.Delete(k)
}

// NewIter opens a cursor over the DB on worker 0's handle: bidirectional
// (First/Last/SeekGE/SeekLT/Next/Prev), bounded by o, and
// checkpoint-friendly — the walk holds the epoch machinery only for one
// bounded batch at a time. On a sharded DB the per-shard cursors are
// k-way merged, so iteration order is identical to an unsharded cursor.
// Concurrent workers should open their own cursor via Handle(i).NewIter.
func (db *DB) NewIter(o IterOptions) Iterator {
	return db.engine().handles[0].NewIter(o)
}

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

// Scan visits up to max keys ≥ start in ascending order (max < 0 means
// unlimited), until fn returns false. Returns the number visited. On a
// sharded DB the per-shard streams are k-way merged, so iteration order is
// identical to an unsharded scan. A thin wrapper over NewIter, kept for
// compatibility; the key slice is only valid during the callback.
func (db *DB) Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int {
	h := dynHandle{db: db}
	return h.Scan(start, max, fn)
}

// ScanBytes is Scan delivering byte values; the key and value slices are
// only valid during the callback.
func (db *DB) ScanBytes(start []byte, max int, fn func(k, v []byte) bool) int {
	h := dynHandle{db: db}
	return h.ScanBytes(start, max, fn)
}

// Len returns the number of live keys tracked this execution (transient;
// call RebuildLen after a restart if an exact count is needed).
func (db *DB) Len() int {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.Len()
	}
	return e.store.Len()
}

// RebuildLen recomputes Len with one full scan.
func (db *DB) RebuildLen() int {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.RebuildLen()
	}
	return e.store.RebuildLen()
}

// Checkpoint ends the current epoch: quiesces workers, flushes the cache,
// and commits everything written so far. Returns the number of cache
// lines flushed. Equivalent to one tick of the background checkpointer.
// On a sharded DB this is the coordinated two-phase global checkpoint.
// Excluded against in-flight transaction commits.
func (db *DB) Checkpoint() int {
	return db.txns.Advance()
}

// StartCheckpointer begins advancing epochs every Options.EpochInterval
// in the background, like the paper's 64 ms timer (cluster-wide when
// sharded, and always excluded against transaction commits).
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
	db.StopRecorder()
	db.txns.StopTicker()
	e := db.engine()
	if e.sharded != nil {
		e.sharded.Shutdown()
	} else {
		e.store.Shutdown()
	}
	db.closeHub(true)
	for _, rs := range srvs {
		rs.srv.Drain(5 * time.Second)
		rs.srv.Close()
	}
}

// SimulateCrash injects a power failure: each dirty cache line survives
// with probability persistFraction, everything else is lost, and the DB
// becomes unusable until Reopen. On a sharded DB every shard arena crashes
// together (independent per-shard survival policies derived from seed).
// All handles must be quiescent.
func (db *DB) SimulateCrash(persistFraction float64, seed int64) {
	if !db.closed.CompareAndSwap(false, true) {
		return
	}
	for _, rs := range db.replServers() {
		rs.srv.Close() // a crash kills connections hard: no drain, no goodbye
	}
	db.StopRecorder()
	db.txns.StopTicker()
	db.closeHub(false) // the volatile journal dies with the process
	db.manifest.Crash(persistFraction, seed)
	e := db.engine()
	if e.sharded != nil {
		e.sharded.SimulateCrash(persistFraction, seed)
		return
	}
	e.store.StopTicker()
	e.arena.Crash(nvm.RandomPolicy(persistFraction, seed))
}

// Reopen recovers the DB from the arena contents after SimulateCrash (or
// after Close, to model a clean restart). Sharded recovery runs per shard
// in parallel. Recovery first revalidates the durable topology manifest:
// the arena set being reopened must be the one the manifest says is live
// (a crash on either side of a reshard cutover leaves exactly one side
// both durable and named by the manifest — see DESIGN.md §13).
func (db *DB) Reopen() (*DB, RecoveryInfo) {
	e := db.engine()
	if want := db.manifest.Recover(); !want.Equal(e.topo) {
		panic(fmt.Sprintf("incll: durable topology manifest %+v does not name the open engine's topology %+v", want, e.topo))
	}
	if e.sharded != nil {
		s, sinfo := e.sharded.Reopen()
		// The shard config — tracer included — carries over, so the phase
		// trace spans the crash: the recovery events land in the same ring
		// the pre-crash checkpoints did.
		db2 := &DB{manifest: db.manifest, rawOpts: db.rawOpts, trace: db.trace, stw: db.stw, phases: db.phases}
		db2.eng.Store(newEngine(e.opts, nil, nil, s))
		info := shardInfo(sinfo)
		info.TxnsReplayed = db2.initTxns()
		db2.traceTxnReplay(info.TxnsReplayed)
		return db2, info
	}
	e.arena.ResetReservations()
	return attach(e.arena, e.opts, db.rawOpts, db.manifest, db.trace, db.stw, db.phases)
}

// Stats exposes the store's counters (logging, InCLL usage, the value
// heap, recovery). Reading them (Load) is safe at any time, concurrently
// with writers and the background checkpointer; each read is a sum over
// per-worker stripes, so it is monotone but not a single atomic snapshot
// across counters. For an unsharded DB the returned struct is live; for a
// sharded DB it is a point-in-time aggregate across shards — equal to the
// sum of ShardStats(i) over all shards when writers are quiescent — so
// call Stats again for fresh values, and use ShardStats for the (live)
// per-shard view. Prefer DB.Metrics for a coherent typed snapshot.
func (db *DB) Stats() *core.Stats {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.Stats()
	}
	return e.store.Stats()
}

// ShardStats returns shard i's live counters (i < Shards()). For an
// unsharded DB, ShardStats(0) is Stats.
func (db *DB) ShardStats(i int) *core.Stats {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.ShardStore(i).Stats()
	}
	return e.store.Stats()
}

// NVMStats exposes the simulated memory subsystem's counters (writebacks,
// fences, flushed lines, crash outcomes), summed across arenas when
// sharded.
func (db *DB) NVMStats() nvm.StatsSnapshot {
	e := db.engine()
	if e.sharded != nil {
		return e.sharded.NVMStats()
	}
	return e.arena.Stats().Snapshot()
}

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
// Commits are ordered by key: two commits exclude each other only if one
// reads or writes a key the other writes or reads — or if they run on the
// same worker, whose log segments and allocator lists are single-writer.
// Begin and Apply run on worker 0 whoever calls them, so their commits
// serialize; give concurrent clients a worker each with BeginWorker.
type Txn struct{ t *txn.Txn }

// Begin starts a transaction on worker 0.
func (db *DB) Begin() *Txn { return db.BeginWorker(0) }

// BeginWorker starts a transaction on worker i (i < Options.Workers).
func (db *DB) BeginWorker(i int) *Txn { return &Txn{t: db.txns.Begin(i)} }

// Get reads the uint64 view of k: the transaction's own pending write if
// any, else a cached prior read, else the store.
func (t *Txn) Get(k []byte) (uint64, bool) { return t.t.Get(k) }

// GetBytes is Get returning a copy of the byte value.
func (t *Txn) GetBytes(k []byte) ([]byte, bool) { return t.t.GetBytes(k) }

// Put buffers a write of v under k.
func (t *Txn) Put(k []byte, v uint64) { t.t.Put(k, v) }

// PutBytes buffers a write of the byte value v under k. An oversized key
// or value poisons the transaction: Commit returns an error satisfying
// errors.Is(err, ErrValueTooLarge) or errors.Is(err, ErrKeyTooLarge).
func (t *Txn) PutBytes(k []byte, v []byte) { t.t.PutBytes(k, v) }

// Delete buffers a deletion of k.
func (t *Txn) Delete(k []byte) { t.t.Delete(k) }

// NewIter opens a cursor over the transaction's view of the store: the
// committed state with the transaction's own pending writes overlaid —
// buffered puts are visible, buffered deletes hide store keys. The write
// set is snapshotted at call time. Iterated entries are not added to the
// read set (Commit validates point reads only; no phantom protection).
func (t *Txn) NewIter(o IterOptions) Iterator { return t.t.NewIter(o) }

// All is the range-over-func view of the transaction's overlaid state in
// ascending key order; see DB.All.
func (t *Txn) All() iter.Seq2[[]byte, []byte] { return t.Iter(IterOptions{}) }

// Iter is the range-over-func form of Txn.NewIter, honouring o.Reverse.
func (t *Txn) Iter(o IterOptions) iter.Seq2[[]byte, []byte] {
	return cursorSeq(func() Iterator { return t.NewIter(o) }, o.Reverse)
}

// Commit atomically applies the write set; nil means durably committed,
// ErrConflict means a validated read changed (retry).
func (t *Txn) Commit() error { return t.t.Commit() }

// Abort discards the transaction.
func (t *Txn) Abort() { t.t.Abort() }

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
