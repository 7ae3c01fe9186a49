// Package txn adds crash-atomic multi-key transactions on top of the
// durable store(s): a Txn buffers reads and writes, and Commit applies the
// whole write set so that a power failure at *any* instruction leaves
// either every write or none — and a transaction whose Commit returned is
// durable immediately, without waiting for the next 64 ms checkpoint.
//
// The protocol leans on the two mechanisms the repository already has:
//
//   - Intent redo records. Commit first writes the full write set into a
//     per-writer intent segment (extlog.IntentLog) and issues its
//     writebacks, then sets the record's commit mark and fences once — the
//     transaction's only fence of its own — which makes content, header
//     and mark durable together. That fence is the durability point, and
//     nothing is applied before it. A crash before it completes can
//     persist any subset of the record's lines; the record's checksum
//     (computed over header fields and content, stored beside the mark)
//     tells a whole record from such a partial one, so atomicity relies on
//     it. Recovery replays committed intents whose epoch failed, in
//     commit-sequence order, redoing every write over the epoch's rollback.
//
//   - Epoch atomicity. Commit runs entirely inside one epoch (the commit
//     guard excludes epoch advances for its duration), so the apply after
//     the fence lands in the epoch the record names. If that epoch fails,
//     its rollback — InCLL undo state plus the external undo log — and
//     the replay above together leave exactly the committed post-state.
//     Because the replay redoes every write, the transaction's own
//     inline-value updates need no undo at all (core's
//     Handle.PutCommittedLocked); every other write takes the ordinary
//     InCLL path. See DESIGN.md §6.
//
// Cross-shard commits need no extra coordination: the shard coordinator's
// fenced record (see internal/shard) already decides, for every shard at
// once, whether the commit's epoch survived — the same single-line
// linearization point the coordinated checkpoint uses. The intent lives on
// the home shard (the lowest shard written) and names no shard set:
// recovery's replay decision consults the home shard's epoch state, which
// the coordinator record made identical on every shard, and the replay
// routes each write through the live router.
//
// Topology: the Manager routes, locks, and logs through one immutable
// topoState loaded from an atomic pointer. An online reshard swaps that
// pointer under the exclusive commit guard (Cutover), so every commit runs
// start-to-finish under exactly one topology — the one it loads *after*
// taking the guard shared — and intent records carry the topology version
// they committed under, so recovery after a crash mid-reshard replays a
// record only into the topology that is durably live (see DESIGN.md §13).
//
// Isolation is key-granular: a commit excludes exactly the commits that
// read or write one of its keys. Every key of the read and write sets
// hashes to one stripe of a fixed lock table (see commitlock.go) and
// Commit takes its stripes in ascending order, so two commits that share
// no key share no lock (a hash collision only adds exclusion) and
// conflicting commits are totally ordered, in the order of their sequence
// numbers. Commit validates the transaction's read set under those locks,
// returning ErrConflict when a read value changed since the transaction
// observed it (optimistic concurrency; callers retry). Validation does not
// walk the tree again: each read left a position (core.Pos) — its leaf, the
// leaf's version word and the key's index — and while the version word
// reads the same, the key is still at that index (or still absent), so
// validation re-reads the value there and compares its bytes; the apply
// writes a read key at the same position under the leaf lock. A position
// whose leaf an insert, removal, relocation or split moved, or one taken
// under another topology, falls back to a descent. One more exclusion
// has nothing to do with keys: commits on the same worker index are
// mutually exclusive, because a worker's intent segment, undo-log segment
// and allocator lists are single-writer and the façade's Begin and Apply
// run every caller on worker 0. Non-transactional single-key operations
// remain unaffected and uncoordinated — they become durable at the next
// checkpoint, as before.
package txn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/extlog"
	"incll/internal/obs"
)

// Commit errors.
var (
	// ErrConflict means read-set validation failed: another transaction
	// committed a conflicting write first. The caller should rebuild the
	// transaction and retry.
	ErrConflict = errors.New("txn: read-set conflict")
	// ErrTooLarge means the write set cannot fit one intent segment even
	// after an epoch boundary; raise Config.TxnSegWords.
	ErrTooLarge = errors.New("txn: write set exceeds the intent segment")
	// ErrLogFull means the intent segment stayed full across retried epoch
	// boundaries (pathological commit pressure).
	ErrLogFull = errors.New("txn: intent segment full after retries")
	// ErrInjected is returned when the test hook aborted the commit
	// mid-protocol (crash-injection tests only).
	ErrInjected = errors.New("txn: crash injected by test hook")
)

// InjectedCrash is the panic payload a test hook throws to stop a commit at
// an exact protocol point; Commit converts it to ErrInjected after
// releasing its locks without touching NVM again.
type InjectedCrash struct{ Point string }

// Config assembles a Manager over one store or a sharded cluster. Every
// field but TopoVersion is required; ForStore and ClusterConfig fill them.
type Config struct {
	// Stores is the shard list (length 1 for an unsharded store). Clusters
	// of up to 64 shards use the one-word inline ShardSet fast path;
	// larger ones spill to a widened bitset — there is no hard ceiling
	// here (the façade enforces its own).
	Stores []*core.Store
	// TopoVersion is the topology version the stores belong to (stamped
	// into every intent record); 0 means 1, the first topology.
	TopoVersion uint64
	// Route maps a key to its shard index. Must be the cluster's real
	// router (shard.Route) so recovery re-applies every write on the shard
	// that owns it.
	Route func(k []byte) int
	// Advance runs one cluster-wide epoch advance and returns the number
	// of lines flushed — core.Store.Advance for one store, the coordinated
	// shard.Store.Advance for a cluster. The Manager wraps it with the
	// commit guard; callers must go through Manager.Advance from then on.
	Advance func() int
	// NewIter opens a cursor over the whole (possibly sharded) store for
	// worker w — the sharded merge cursor for a cluster.
	NewIter func(worker int, o core.IterOptions) core.Cursor
}

// Stats counts transaction outcomes.
type Stats struct {
	Committed atomic.Int64 // transactions whose Commit succeeded
	Conflicts atomic.Int64 // commits rejected by read validation
	Replays   atomic.Int64 // intents re-applied by recovery (this Open)
	Stale     atomic.Int64 // intents recovery skipped: committed under a topology no longer live
}

// Manager owns the transaction machinery for one store or cluster. One
// Manager per open DB; rebuild it after every reopen (its New runs intent
// recovery).
type Manager struct {
	// topo is the live topology: stores, router, advance, iterator
	// factory, and the per-worker commit locks, all versioned together.
	// Commit paths load it exactly once, after taking the commit guard
	// shared — never before, or a reshard cutover (which swaps the pointer
	// under the exclusive guard) could change the routing mid-commit and
	// strand writes on a frozen donor shard.
	topo atomic.Pointer[topoState]

	// guard serializes commits against epoch advances and topology
	// cutovers: commits hold it shared for the whole intent→mark→apply
	// window (so neither the epoch nor the topology can change mid-commit,
	// and multi-shard Enter cannot deadlock against the coordinated
	// two-phase advance), advances and Cutover hold it exclusively.
	guard sync.RWMutex

	// stripes is the key-granular commit lock table. It belongs to the
	// Manager, not the topology: a key's stripe does not depend on the
	// shard count, and a cutover runs with no commit in flight.
	stripes *[lockStripes]paddedMutex

	// slots holds each worker's last finished Txn for its next Begin
	// (see Begin). Like stripes, it outlives topologies.
	slots []core.CursorSlot[Txn]

	seq   atomic.Uint64
	stats Stats
	// fallbacks counts read positions a commit found stale — in
	// validation or apply — and replaced by a descent.
	fallbacks atomic.Int64

	// phases is the sampled latency-attribution timer (see obs.PhaseSet):
	// commits charge their guard RLock wait to guard_wait and the locks
	// behind it (worker, key stripes, epoch guards) to commit_lock_wait;
	// advances record their exclusive guard wait and hold always (one per
	// epoch, too rare to sample). nil disables.
	phases *obs.PhaseSet

	hook func(point string) // crash-injection test hook; nil in production

	ticker epoch.Ticker
}

// topoState is one immutable topology epoch of the Manager: everything
// whose meaning depends on the shard count, bundled so a cutover replaces
// it all in one pointer swap.
type topoState struct {
	version uint64
	stores  []*core.Store
	route   func(k []byte) int
	advance func() int
	iter    func(worker int, o core.IterOptions) core.Cursor

	// workerMu[w] keeps worker w's commits mutually exclusive for the
	// commit window: the intent segment cursor, the undo-log segment and
	// the allocator lists behind Handle(w) are single-writer per store.
	workerMu []paddedMutex
}

func (st *topoState) shardOf(k []byte) int { return st.route(k) }

func newTopoState(cfg Config) *topoState {
	st := &topoState{
		version:  cfg.TopoVersion,
		stores:   cfg.Stores,
		route:    cfg.Route,
		advance:  cfg.Advance,
		iter:     cfg.NewIter,
		workerMu: make([]paddedMutex, cfg.Stores[0].Workers()),
	}
	if st.version == 0 {
		st.version = 1
	}
	return st
}

// Instrument attaches the latency-attribution timer. nil detaches.
func (m *Manager) Instrument(ph *obs.PhaseSet) { m.phases = ph }

// New builds a Manager and runs intent recovery: every committed intent
// whose epoch failed is replayed in commit order, the replay is committed
// with one cluster checkpoint, and the intent generation is retired.
// Returns the number of transactions replayed. Must run after the stores
// are open and before any mutator starts.
func New(cfg Config) (*Manager, int) {
	if len(cfg.Stores) == 0 {
		panic("txn: no stores")
	}
	m := &Manager{
		stripes: new([lockStripes]paddedMutex),
		slots:   make([]core.CursorSlot[Txn], cfg.Stores[0].Workers()),
	}
	m.topo.Store(newTopoState(cfg))
	return m, m.recover()
}

// Cutover atomically replaces the manager's topology — the transaction
// layer's half of a reshard cutover. It takes the commit guard
// exclusively, so when fn runs no commit is in flight and no advance can
// interleave; fn is the reshard driver's critical section (final donor
// checkpoint, change-stream drain, target checkpoint, manifest commit).
// When fn reports commit=true, next is installed as the live topology
// before the guard is released — every commit that starts afterwards
// routes, locks, and logs intents under the new topology. commit=false
// (a pre-manifest abort) leaves the old topology live. fn's error is
// returned either way.
func (m *Manager) Cutover(next Config, fn func() (commit bool, err error)) error {
	m.guard.Lock()
	defer m.guard.Unlock()
	commit, err := fn()
	if commit {
		m.install(next)
	}
	return err
}

func (m *Manager) install(cfg Config) {
	st := newTopoState(cfg)
	m.topo.Store(st)
	if m.hook != nil {
		for _, s := range st.stores {
			s.Intents().Hook = m.hook
		}
	}
}

// Stats returns the manager's counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// Advance runs one cluster-wide epoch advance (a checkpoint), excluded
// against in-flight commits by the commit guard. All checkpoints of a
// transactional store must go through here.
func (m *Manager) Advance() int {
	if m.phases != nil {
		// One advance per epoch: record the wait for in-flight commits to
		// drain (guard_wait) and the exclusive hold (guard_hold) always.
		t0 := time.Now()
		m.guard.Lock()
		t1 := time.Now()
		m.phases.Observe(obs.PhaseGuardWait, t1.Sub(t0))
		defer func() {
			m.phases.Observe(obs.PhaseGuardHold, time.Since(t1))
			m.guard.Unlock()
		}()
		return m.topo.Load().advance()
	}
	m.guard.Lock()
	defer m.guard.Unlock()
	return m.topo.Load().advance()
}

// StartTicker advances epochs every interval in the background, like the
// paper's 64 ms timer, via the guard-aware Advance.
func (m *Manager) StartTicker(interval time.Duration) {
	m.ticker.Start(interval, func() { m.Advance() })
}

// StopTicker stops the background ticker, if running.
func (m *Manager) StopTicker() { m.ticker.Stop() }

// inlineKeys is how many read-set and write-set entries (each) a Txn holds
// in its own storage; inlineBytes is the key and value bytes it holds the
// same way (eight reads and eight writes of 8-byte keys and values).
// Larger transactions spill to the heap and to map indexes.
const (
	inlineKeys  = 8
	inlineBytes = 256
)

// readEnt is one read-set observation (the full byte value, so validation
// catches any change, not just changes visible through the uint64 view)
// and the position the read left the key at, which validation and apply
// start from.
type readEnt struct {
	key   []byte
	val   []byte
	pos   core.Pos
	found bool
}

// Txn is one transaction: buffered writes, cached reads, one Commit or
// Abort. A Txn belongs to the worker that began it and is not safe for
// concurrent use.
//
// Read set, write set, their key and value bytes and the commit window's
// bookkeeping start out in arrays inside the Txn, and the Txn itself is
// recycled: Commit and Abort leave it in its worker's slot and the
// worker's next Begin takes it back, so a transaction of up to inlineKeys
// reads and writes allocates nothing. A reference kept past Commit or
// Abort panics on use until that next Begin, and aliases the new
// transaction after it. Do not copy a Txn.
type Txn struct {
	m      *Manager
	worker int

	reads  []readEnt         // in first-read order
	writes []extlog.IntentOp // in first-write order; one entry per key
	// rindex and windex map a key to its position in reads and writes.
	// nil while the set fits inlineKeys entries, which are scanned instead.
	rindex, windex map[string]int
	// data holds the bytes every key and value above points into. Growing
	// it leaves earlier slices on the array they were cut from.
	data []byte
	// topo is the version of the topology the reads' positions were taken
	// under; a commit under another one drops them all.
	topo uint64

	done bool
	// err is the sticky buffered-write error (oversized key or value):
	// the offending write is dropped, the transaction is poisoned, and
	// Commit reports the first failure — long before any durable intent
	// could be written. errors.Is-compatible with core.ErrValueTooLarge /
	// core.ErrKeyTooLarge.
	err error

	cw commitWindow

	readBuf  [inlineKeys]readEnt
	writeBuf [inlineKeys]extlog.IntentOp
	dataBuf  [inlineBytes]byte
}

// Begin starts a transaction on worker index worker (the same index used
// for Store handles; one live transaction per worker at a time). It takes
// the worker's last finished Txn from its slot, or allocates one when the
// slot is empty — as when two goroutines begin on worker 0 at once, which
// DB.Begin and DB.Apply allow — and resets it to the fresh state. The
// arrays keep stale bytes; nothing reads past the slices' lengths.
func (m *Manager) Begin(worker int) *Txn {
	t := m.slots[worker].Take()
	if t == nil {
		t = &Txn{m: m}
	}
	t.worker = worker
	t.reads, t.writes, t.data = t.readBuf[:0], t.writeBuf[:0], t.dataBuf[:0]
	t.rindex, t.windex = nil, nil
	t.topo, t.done, t.err = 0, false, nil
	return t
}

// recycle offers the finished transaction to its worker's next Begin. done
// stays set while it waits there, so a stale reference still panics.
func (t *Txn) recycle() { t.m.slots[t.worker].Put(t) }

func (t *Txn) check() {
	if t.done {
		panic("txn: use after Commit/Abort")
	}
}

// keep copies b into the transaction's byte storage.
func (t *Txn) keep(b []byte) []byte {
	off := len(t.data)
	t.data = append(t.data, b...)
	return t.data[off:]
}

// indexKey records that k is about to take position n of a read or write
// set. While the set fits inlineKeys entries it has no index (finds scan
// it); the entry that outgrows that builds one over the n keys before it.
func indexKey(idx *map[string]int, k []byte, n int, keyAt func(i int) []byte) {
	if *idx == nil {
		if n < inlineKeys {
			return
		}
		*idx = make(map[string]int, 2*n)
		for i := 0; i < n; i++ {
			(*idx)[string(keyAt(i))] = i
		}
	}
	(*idx)[string(k)] = n
}

// findRead returns k's position in the read set, or -1.
func (t *Txn) findRead(k []byte) int {
	if t.rindex != nil {
		if i, ok := t.rindex[string(k)]; ok {
			return i
		}
		return -1
	}
	for i := range t.reads {
		if bytes.Equal(t.reads[i].key, k) {
			return i
		}
	}
	return -1
}

// findWrite returns k's position in the write set, or -1.
func (t *Txn) findWrite(k []byte) int {
	if t.windex != nil {
		if i, ok := t.windex[string(k)]; ok {
			return i
		}
		return -1
	}
	for i := range t.writes {
		if bytes.Equal(t.writes[i].Key, k) {
			return i
		}
	}
	return -1
}

// Get reads the uint64 view of k: the transaction's own pending write if
// any, else a cached prior read, else the store. Reads are validated at
// Commit; a change between here and Commit fails the transaction with
// ErrConflict.
func (t *Txn) Get(k []byte) (uint64, bool) {
	v, ok := t.getBytes(k)
	return core.DecodeValue(v), ok
}

// GetBytes is Get returning a copy of the byte value.
func (t *Txn) GetBytes(k []byte) ([]byte, bool) {
	v, ok := t.getBytes(k)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// getBytes returns the observed value without copying; callers must not
// retain or mutate it.
func (t *Txn) getBytes(k []byte) ([]byte, bool) {
	t.check()
	if i := t.findWrite(k); i >= 0 {
		op := &t.writes[i]
		if op.Delete {
			return nil, false
		}
		return op.Val, true
	}
	if i := t.findRead(k); i >= 0 {
		return t.reads[i].val, t.reads[i].found
	}
	// Non-commit reads may route through a topology a concurrent cutover
	// is about to retire — harmless: the frozen donor holds a committed
	// snapshot, and Commit's validation re-reads under the *current*
	// topology's locks, so any divergence surfaces as ErrConflict.
	st := t.m.topo.Load()
	if t.topo == 0 {
		t.topo = st.version
	}
	rd := readEnt{key: t.keep(k)}
	off := len(t.data)
	t.data, rd.found = st.stores[st.shardOf(k)].Handle(t.worker).AppendGetPos(t.data, k, &rd.pos)
	rd.val = t.data[off:]
	indexKey(&t.rindex, k, len(t.reads), func(i int) []byte { return t.reads[i].key })
	t.reads = append(t.reads, rd)
	return rd.val, rd.found
}

// Put buffers a write of v under k (applied atomically at Commit), using
// the canonical uint64 byte encoding.
func (t *Txn) Put(k []byte, v uint64) {
	var buf [8]byte
	t.write(k, core.AppendValueUint64(buf[:0], v), false)
}

// PutBytes buffers a write of the byte value v under k (applied atomically
// at Commit). An oversized key or value poisons the transaction — here at
// the buffering site, never mid-commit with a durable intent already
// written — and Commit returns an error errors.Is-compatible with
// core.ErrValueTooLarge / core.ErrKeyTooLarge.
func (t *Txn) PutBytes(k []byte, v []byte) { t.write(k, v, false) }

// Delete buffers a deletion of k (applied atomically at Commit).
func (t *Txn) Delete(k []byte) { t.write(k, nil, true) }

// write size-checks and records one buffered write, collapsing repeated
// writes to one key into the last. A failed check poisons the transaction
// with the first failure.
func (t *Txn) write(k, v []byte, del bool) {
	t.check()
	if err := core.ValidateKV(k, v); err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("txn: %w", err)
		}
		return
	}
	op := extlog.IntentOp{Delete: del}
	if !del {
		op.Val = t.keep(v)
	}
	if i := t.findWrite(k); i >= 0 {
		op.Key = t.writes[i].Key
		t.writes[i] = op
		return
	}
	op.Key = t.keep(k)
	indexKey(&t.windex, k, len(t.writes), func(i int) []byte { return t.writes[i].Key })
	t.writes = append(t.writes, op)
}

// Abort discards the transaction. Nothing was applied or logged.
func (t *Txn) Abort() {
	t.check()
	t.done = true
	t.recycle()
}

// Commit atomically applies the write set. On return with nil error the
// transaction is durable: a crash at any later point preserves every
// write. ErrConflict means a validated read changed; rebuild and retry.
// A read-only transaction writes nothing but still validates: a nil
// return certifies that every read came from one consistent committed
// state.
func (t *Txn) Commit() error {
	t.check()
	t.done = true
	var err error
	switch {
	case t.err != nil:
		err = t.err
	case len(t.writes) > 0:
		err = t.m.commit(t)
	case len(t.reads) > 0:
		err = t.m.validateOnly(t)
	}
	t.recycle()
	return err
}

// commitAttempts bounds commit's retries around a full intent segment. A
// retry finds the segment full again only if other commits on the same
// worker wrote a whole segment between this one's Advance and its turn at
// the worker lock — progress, not livelock — and with several goroutines
// committing through one worker (DB.Apply) and a small segment that does
// happen two or three times in a row. The bound only turns a cursor that
// never resets into an error instead of a hang.
const commitAttempts = 64

// commit runs the protocol, retrying around a full intent segment (an
// epoch boundary resets the cursors).
func (m *Manager) commit(t *Txn) error {
	for attempt := 0; attempt < commitAttempts; attempt++ {
		done, err := m.tryCommit(t)
		if done {
			return err
		}
		// Intent segment full: force an epoch boundary, which both commits
		// the segment's records and resets its cursor, then retry.
		m.Advance()
	}
	return ErrLogFull
}

// validateLocked re-reads the transaction's read set under the commit
// locks and reports whether every observation still holds (full byte
// comparison). Each read starts from its position and descends only when
// the position went stale; either way it leaves a current position for
// the apply.
func (m *Manager) validateLocked(t *Txn, st *topoState) bool {
	var scratch [64]byte
	buf := scratch[:0]
	// Positions name leaves of the stores the reads ran on.
	moved := t.topo != st.version
	t.topo = st.version
	for i := range t.reads {
		rd := &t.reads[i]
		if moved && rd.pos != (core.Pos{}) {
			rd.pos = core.Pos{}
			m.fallbacks.Add(1)
		}
		cur, ok, stale := st.stores[st.shardOf(rd.key)].Handle(t.worker).AppendGetLocked(buf[:0], rd.key, &rd.pos)
		if stale {
			m.fallbacks.Add(1)
		}
		if ok != rd.found || !bytes.Equal(cur, rd.val) {
			return false
		}
		buf = cur
	}
	return true
}

// validateOnly certifies a read-only transaction: under the commit locks
// of every key it read, every cached read must still hold — so the reads
// together form one consistent committed snapshot.
func (m *Manager) validateOnly(t *Txn) error {
	st := m.acquire(t)
	ok := m.validateLocked(t, st)
	m.release(t)
	if !ok {
		m.stats.Conflicts.Add(1)
		return ErrConflict
	}
	return nil
}

// tryCommit runs one attempt: validate, intent, mark, apply. done=false
// (only) when the intent segment is full and the caller should advance the
// epoch and retry.
func (m *Manager) tryCommit(t *Txn) (done bool, err error) {
	st := m.acquire(t)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(InjectedCrash); ok {
				// Leave NVM exactly as the hook saw it; only release the
				// volatile locks so the test can crash and reopen.
				m.release(t)
				done, err = true, ErrInjected
				return
			}
			panic(r)
		}
	}()

	home := t.cw.wset.Min()
	if !st.stores[home].Intents().IntentFits(t.writes) {
		m.release(t)
		return true, ErrTooLarge
	}

	// Validate the read set under the locks: conflicting commits are
	// excluded, so a passing validation holds through the apply below.
	if !m.validateLocked(t, st) {
		m.release(t)
		m.stats.Conflicts.Add(1)
		return true, ErrConflict
	}

	m.point("commit-start")

	// Sequence and intent. seq is drawn under the commit locks, so for
	// conflicting transactions seq order equals commit order — the order
	// recovery replays in. The record carries the topology version, so a
	// crash mid-reshard replays it only if this topology is still the
	// durably live one. The record is written back but not yet fenced.
	seq := m.seq.Add(1)
	epochNum := st.stores[home].Epochs().Current()
	entry, ok := st.stores[home].Intents().Writer(t.worker).AppendIntent(seq, epochNum, st.version, t.writes)
	if !ok {
		m.release(t)
		return false, nil
	}
	m.point("intent-appended")

	// The mark and the record's one fence: the transaction's durability
	// point. Nothing has been applied yet, so a crash before it completes
	// leaves the store untouched by this transaction.
	st.stores[home].Intents().MarkCommitted(entry)
	m.point("commit-durable")

	// Apply. From here on a crash replays the whole write set over the
	// epoch's rollback, so the record covers every write below: an inline
	// value overwritten with an inline value needs no undo of its own
	// (PutCommittedLocked), and a crash mid-apply means post-state. A key
	// the transaction read is written at the position validation left.
	for i := range t.writes {
		op := &t.writes[i]
		h := st.stores[st.shardOf(op.Key)].Handle(t.worker)
		if op.Delete {
			h.DeleteLocked(op.Key)
		} else {
			var pos *core.Pos
			if r := t.findRead(op.Key); r >= 0 {
				pos = &t.reads[r].pos
			}
			if h.PutCommittedLocked(op.Key, op.Val, pos) {
				m.fallbacks.Add(1)
			}
		}
		if m.hook != nil {
			m.hook(fmt.Sprintf("applied-%d", i))
		}
	}

	m.release(t)
	m.stats.Committed.Add(1)
	return true, nil
}

// point fires the crash-injection hook, if installed.
func (m *Manager) point(p string) {
	if m.hook != nil {
		m.hook(p)
	}
}
