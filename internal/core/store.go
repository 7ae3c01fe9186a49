package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/alloc"
	"incll/internal/epoch"
	"incll/internal/extlog"
	"incll/internal/nvm"
	"incll/internal/obs"
)

// Config sizes and parameterizes a Store.
type Config struct {
	// Workers is the number of concurrent worker threads; each worker must
	// use its own Handle. Sizes the allocator shards and log segments.
	Workers int

	// LogSegWords is the per-worker external-log segment size in words.
	// Must be large enough for one epoch's worth of logged nodes.
	LogSegWords uint64

	// TxnSegWords is the per-worker transaction intent segment size in
	// words (see internal/txn). Must be large enough for one epoch's worth
	// of committed write sets per worker.
	TxnSegWords uint64

	// HeapWords is the durable heap size in words (nodes, value buffers,
	// layer anchors all live there).
	HeapWords uint64

	// DisableInCLL switches the store to the paper's LOGGING ablation:
	// every first modification per node per epoch goes to the external log
	// instead of the in-cache-line logs (used by Figures 7 and 8).
	DisableInCLL bool

	// Committed is an optional cross-store commit oracle for stores whose
	// epoch boundaries are driven by a sharding coordinator: it reports
	// whether epoch e was globally committed even though this store's own
	// header never recorded the commit (the window between the
	// coordinator's durable commit record and this store's local header
	// update). nil means the store commits its own epochs (the default).
	// See epoch.OpenCoordinated and internal/shard.
	Committed func(e uint64) bool

	// Trace receives protocol events (checkpoint phases, recovery replay)
	// and StopTheWorld the measured duration of every epoch boundary's
	// stop-the-world window. Both optional; see internal/obs. Shard tags
	// this store's events in a multi-store cluster.
	Trace        *obs.Tracer
	StopTheWorld *obs.Histogram
	Shard        int

	// Phases, when set, receives sampled op-latency attribution (see
	// obs.PhaseSet and DESIGN.md §12): Open threads it through the epoch
	// manager, arena, and allocator, and the op entry points lap it.
	// Optional; every consumer is nil-safe.
	Phases *obs.PhaseSet
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.LogSegWords == 0 {
		c.LogSegWords = 1 << 20
	}
	if c.TxnSegWords == 0 {
		c.TxnSegWords = 1 << 14
	}
	if c.HeapWords == 0 {
		c.HeapWords = 1 << 24
	}
}

// ChangeOp identifies one published mutation kind (see ChangeSink).
type ChangeOp uint8

const (
	// ChangePut is a put of a byte value (uint64 puts publish their
	// canonical byte encoding).
	ChangePut ChangeOp = 1
	// ChangeDelete is a deletion; the value is nil.
	ChangeDelete ChangeOp = 2
)

// ChangeSink receives every mutation the store applies, in application
// order per handle, tagged with the epoch it belongs to. Publish runs on
// the mutating worker's goroutine with the epoch guard held (so the epoch
// cannot advance mid-publish) and must not retain k or v past the call.
// The change stream's consistent prefix is defined by the epoch machinery:
// an entry is part of the durable history exactly when its epoch commits
// (epoch.Manager.OnCommit). Used by internal/repl's change journal.
type ChangeSink interface {
	Publish(op ChangeOp, k, v []byte, epoch uint64)
}

// Stats counts store-level events. Each field is a striped counter
// (internal/obs): writers on the leaf-locked paths pay one relaxed atomic
// add on their own worker's padded stripe; Load sums the stripes.
type Stats struct {
	LoggedNodes    obs.Counter // external-log entries written (Figure 7's metric); a relocated update writes none
	InCLLPerm      obs.Counter // InCLLp first-touch captures, a relocating update's included
	InCLLVal       obs.Counter // ValInCLL captures (first-touch or claimed)
	LazyRecoveries obs.Counter // nodes repaired lazily after a restart
	ValueHeapBytes obs.Counter // bytes written out-of-place to the value heap
	Puts           obs.Counter
	Gets           obs.Counter
	Deletes        obs.Counter
	Scans          obs.Counter // cursor refill batches (Iter.fill), not cursors or keys
}

// valueBuf is one worker's scratch for the uint64 view's value bytes,
// padded to a cache line so neighbouring workers do not false-share.
type valueBuf struct {
	b [8]byte
	_ [7]uint64
}

// layoutFingerprint hashes the config fields the arena's region offsets
// are derived from (FNV-1a), so reopening with any layout-changing change
// — not just one that happens to collide in a bit-packing — panics.
func layoutFingerprint(cfg Config) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [3]uint64{uint64(cfg.Workers), cfg.LogSegWords, cfg.TxnSegWords} {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xFF)) * prime
			v >>= 8
		}
	}
	if h == 0 {
		h = 1 // 0 is the "unstamped" sentinel
	}
	return h
}

// Tree-header root cell layout (one line).
const (
	tRoot      = 0
	tRootInCLL = 1
	tRootEpoch = 2
	// tFingerprint guards against reopening with a layout-changing config:
	// the arena's region offsets are derived from Workers and LogSegWords,
	// so those must match across restarts.
	tFingerprint = 3
)

// Layer-anchor payload layout (one line-resident object).
const (
	aRoot              = 0
	aRootInCLL         = 1
	aRootEpoch         = 2
	anchorPayloadWords = 6
)

// Store is a durable Masstree plus all of its substrates: the epoch
// manager, durable allocator, and external log, all over one NVM arena.
// Over a transient arena (nvm.Config.Transient) the same tree is the
// paper's transient Masstree baseline: it keeps no undo state, so a leaf
// or interior is never captured or logged and no line is ever dirty.
type Store struct {
	arena   *nvm.Arena
	mgr     *epoch.Manager
	alloc   *alloc.Allocator
	log     *extlog.Log
	intents *extlog.IntentLog
	cfg     Config

	// transient mirrors the arena's nvm.Config.Transient: the store keeps
	// no undo state (no InCLL capture, no external-log entry), which makes
	// it the transient Masstree baseline. Read on every undo entry point.
	transient bool

	hdrOff   uint64 // tree-header root cell
	recLocks []sync.Mutex
	versions versionTable // every node's transient version word (node.go)

	handles   []Handle
	iterSlots []CursorSlot[Iter] // per worker: the last closed cursor
	valueBufs []valueBuf         // per worker: Handle.Put's value encoding
	size      atomic.Int64
	recovered int

	// changes is the registered ChangeSink, if any. An atomic pointer so
	// the replication hub can attach to a live store; the write path pays
	// one atomic load when no sink is attached.
	changes atomic.Pointer[ChangeSink]

	// phases is the sampled latency-attribution timer (nil-safe; see
	// Config.Phases). Kept on the store so the op entry points reach it
	// with one pointer chase.
	phases *obs.PhaseSet

	stats Stats
}

// InstrumentPhases attaches (nil: detaches) the sampled
// latency-attribution timer after open, re-threading it through the
// arena, allocator, and epoch manager exactly as Config.Phases would at
// Open. The harness uses this to exclude its preload from the attribution
// histograms; callers must be quiescent for the swap.
func (s *Store) InstrumentPhases(ph *obs.PhaseSet) {
	s.phases = ph
	s.arena.Instrument(ph)
	s.alloc.Instrument(ph)
	s.mgr.InstrumentPhases(ph)
}

// ArenaWords returns the smallest arena Open fits cfg in: the null line an
// arena keeps at offset 0, then every region Open reserves (the epoch
// header, the store header line, allocator metadata, each worker's log and
// intent segments, and the heap), each rounded up to whole lines as
// nvm.Arena.Reserve rounds it.
func ArenaWords(cfg Config) uint64 {
	cfg.setDefaults()
	n := uint64(nvm.WordsPerLine)
	for _, w := range []uint64{
		epoch.HeaderWords, nvm.WordsPerLine, alloc.MetaWords(cfg.Workers),
		extlog.RegionWords(cfg.LogSegWords, cfg.Workers),
		extlog.RegionWords(cfg.TxnSegWords, cfg.Workers), cfg.HeapWords,
	} {
		n += (w + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
	}
	return n
}

// Open attaches a Store to the arena, reserving (or re-deriving, after a
// restart) its regions, and performs full recovery: epoch analysis, root
// and allocator head repair, external-log replay. Nodes are then repaired
// lazily on first access. The returned status tells whether this was a
// fresh start, a clean restart, or a crash recovery.
//
// The caller must have called arena.ResetReservations before re-opening an
// arena that carries a previous execution's state.
func Open(a *nvm.Arena, cfg Config) (*Store, epoch.Status) {
	cfg.setDefaults()
	checkArenaSize(a.Size())
	eOff := a.Reserve(epoch.HeaderWords)
	hdr := a.Reserve(nvm.WordsPerLine)
	metaOff := a.Reserve(alloc.MetaWords(cfg.Workers))
	logOff := a.Reserve(extlog.RegionWords(cfg.LogSegWords, cfg.Workers))
	txnOff := a.Reserve(extlog.RegionWords(cfg.TxnSegWords, cfg.Workers))
	heapOff := a.Reserve(cfg.HeapWords)

	mgr, status := epoch.OpenCoordinated(a, eOff, cfg.Committed)
	fp := layoutFingerprint(cfg)
	if old := a.Load(hdr + tFingerprint); old != 0 && old != fp {
		panic(fmt.Sprintf("core: arena was created with a different layout "+
			"(Workers/LogSegWords/TxnSegWords fingerprint %#x, now %#x); reopen with the original Config", old, fp))
	}
	s := &Store{
		arena:     a,
		mgr:       mgr,
		cfg:       cfg,
		transient: a.Config().Transient,
		hdrOff:    hdr,
		recLocks:  make([]sync.Mutex, 1024),
		versions:  newVersionTable(heapOff, cfg.HeapWords),
		phases:    cfg.Phases,
	}
	// Attribution reaches below the store: fences time themselves in the
	// arena, allocations in the allocator (via alloc.New below), and the
	// epoch manager charges its world-lock wait.
	a.Instrument(cfg.Phases)
	// Repair the root cell eagerly (a single line).
	if mgr.IsFailed(a.Load(hdr + tRootEpoch)) {
		a.Store(hdr+tRoot, a.Load(hdr+tRootInCLL))
		a.Store(hdr+tRootEpoch, mgr.Current())
	}
	// Stamp the layout fingerprint durably on first open. Sharing the epoch
	// header's fence keeps this off any hot path.
	if a.Load(hdr+tFingerprint) == 0 {
		a.Store(hdr+tFingerprint, fp)
		a.Writeback(hdr)
		a.Fence()
	}
	s.alloc = alloc.New(a, mgr, metaOff, heapOff, cfg.HeapWords, cfg.Workers)
	s.alloc.Instrument(cfg.Phases)
	s.log = extlog.New(a, mgr, logOff, cfg.LogSegWords, cfg.Workers)
	s.intents = extlog.NewIntentLog(a, mgr, txnOff, cfg.TxnSegWords, cfg.Workers)
	// Replay pre-images of the failed epoch, flush the repaired state, and
	// retire the log generation. Also persists the root/allocator repairs
	// above. Everything else recovers lazily.
	mgr.Instrument(cfg.Trace, cfg.StopTheWorld, cfg.Shard)
	mgr.InstrumentPhases(cfg.Phases)
	recStart := time.Now()
	s.recovered = s.log.Recover()
	if status == epoch.CrashRecovered {
		cfg.Trace.Record(obs.EvRecoveryReplay, cfg.Shard, mgr.Current(),
			time.Since(recStart), int64(s.recovered))
	}

	s.handles = make([]Handle, cfg.Workers)
	s.iterSlots = make([]CursorSlot[Iter], cfg.Workers)
	s.valueBufs = make([]valueBuf, cfg.Workers)
	for i := range s.handles {
		s.handles[i] = Handle{
			s:  s,
			lw: s.log.Writer(i),
			ah: s.alloc.Handle(i),
			w:  i,
		}
	}
	return s, status
}

// RebuildLen walks the tree once, through worker 0's cursor, to rebuild
// the transient Len counter after a restart; like any cursor it holds the
// epoch guard for one batch at a time, so it never stalls a checkpoint.
// Optional: recovery itself is lazy and does not need it, so it is not
// part of Open (the paper's recovery cost excludes any full walk). Returns
// the recomputed count.
func (s *Store) RebuildLen() int {
	var n int64
	it := s.handles[0].NewIter(IterOptions{})
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	it.Close()
	s.size.Store(n)
	return int(n)
}

// RecoveredLogEntries reports how many external-log pre-images the last
// Open applied.
func (s *Store) RecoveredLogEntries() int { return s.recovered }

// Handle returns worker i's handle. Each concurrent worker must use its
// own handle (it owns a log writer segment and an allocator shard).
func (s *Store) Handle(i int) Handle { return s.handles[i] }

// Workers returns the number of worker handles (Config.Workers).
func (s *Store) Workers() int { return len(s.handles) }

// Arena returns the underlying simulated NVM.
func (s *Store) Arena() *nvm.Arena { return s.arena }

// Epochs returns the epoch manager.
func (s *Store) Epochs() *epoch.Manager { return s.mgr }

// Log returns the external log.
func (s *Store) Log() *extlog.Log { return s.log }

// Intents returns the transaction intent log (see internal/txn). The store
// itself never writes to it; the transaction manager owns its protocol.
func (s *Store) Intents() *extlog.IntentLog { return s.intents }

// SetChangeSink registers cs to receive every subsequent mutation (nil
// detaches). Safe to call on a live store; entries published earlier in
// the current epoch are not replayed, which is sound for the snapshot
// protocol because a snapshot scan starting after attachment observes them
// directly (see internal/repl).
func (s *Store) SetChangeSink(cs ChangeSink) {
	if cs == nil {
		s.changes.Store(nil)
		return
	}
	s.changes.Store(&cs)
}

// publish forwards one applied mutation to the registered sink, if any.
// Called with the epoch guard held.
func (s *Store) publish(op ChangeOp, k, v []byte) {
	if p := s.changes.Load(); p != nil {
		(*p).Publish(op, k, v, s.mgr.Current())
	}
}

// Stats returns the store's counters.
func (s *Store) Stats() *Stats { return &s.stats }

// Len returns the number of live keys.
func (s *Store) Len() int { return int(s.size.Load()) }

// HeapUsed reports the words the durable heap has ever carved from its
// wilderness. It plateaus once the working set recycles through the free
// lists — the signal the value-heap leak tests watch.
func (s *Store) HeapUsed() uint64 { return s.alloc.Used() }

// LimboDepth reports how many freed heap objects await reclamation at the
// next epoch boundary (see alloc.Allocator.LimboDepth).
func (s *Store) LimboDepth() int64 { return s.alloc.LimboDepth() }

// Advance ends the current epoch: quiesce, flush, begin the next. Returns
// the number of cache lines flushed.
func (s *Store) Advance() int { return s.mgr.Advance() }

// Shutdown flushes everything and marks a clean shutdown.
func (s *Store) Shutdown() { s.mgr.Shutdown() }

// Convenience single-threaded API on worker 0's handle.

// Get returns the value stored under k.
func (s *Store) Get(k []byte) (uint64, bool) { return s.handles[0].Get(k) }

// Put stores v under k; reports whether k was newly inserted.
func (s *Store) Put(k []byte, v uint64) bool { return s.handles[0].Put(k, v) }

// PutBytes stores the byte value v under k; reports whether k was newly
// inserted.
func (s *Store) PutBytes(k []byte, v []byte) bool { return s.handles[0].PutBytes(k, v) }

// Delete removes k; reports whether it was present.
func (s *Store) Delete(k []byte) bool { return s.handles[0].Delete(k) }

// ---- root cells ----

// rootCell is an InCLL-protected root pointer: the tree header for layer 0
// and one allocated anchor object per deeper layer. All three words share
// a cache line, so the undo-copy → tag → mutate sequence is PCSO-ordered.
type rootCell struct {
	s   *Store
	off uint64
}

func (c rootCell) root() uint64 {
	c.lazyRecover()
	return c.s.arena.Load(c.off + tRoot)
}

// lazyRecover repairs an anchor cell on first access after a restart (the
// layer-0 header is repaired eagerly in Open, and this is then a no-op).
func (c rootCell) lazyRecover() {
	a := c.s.arena
	tag := a.Load(c.off + tRootEpoch)
	if tag >= c.s.mgr.CurrentExec() {
		return
	}
	lk := &c.s.recLocks[c.off%uint64(len(c.s.recLocks))]
	lk.Lock()
	defer lk.Unlock()
	tag = a.Load(c.off + tRootEpoch)
	if tag >= c.s.mgr.CurrentExec() {
		return
	}
	if c.s.mgr.IsFailed(tag) {
		a.Store(c.off+tRoot, a.Load(c.off+tRootInCLL))
	}
	a.Store(c.off+tRootInCLL, a.Load(c.off+tRoot))
	a.Store(c.off+tRootEpoch, c.s.mgr.CurrentExec())
}

// logCell captures the cell's undo state for the current epoch (first
// touch only; never on a transient store).
func (c rootCell) logCell(cur uint64) {
	if c.s.transient {
		return
	}
	a := c.s.arena
	if a.Load(c.off+tRootEpoch) != cur {
		a.Store(c.off+tRootInCLL, a.Load(c.off+tRoot))
		a.Store(c.off+tRootEpoch, cur)
	}
}

// setRoot updates the root pointer with InCLL protection. Callers
// serialize structurally (the old root's lock is held during splits).
func (c rootCell) setRoot(newRoot, cur uint64) {
	c.logCell(cur)
	c.s.arena.Store(c.off+tRoot, newRoot)
}

// casRoot installs the first root of an empty cell.
func (c rootCell) casRoot(old, newRoot, cur uint64) bool {
	c.logCell(cur)
	return c.s.arena.CompareAndSwap(c.off+tRoot, old, newRoot)
}
