package main

import (
	"time"

	"incll"
	"incll/internal/core"
	"incll/internal/masstree"
	"incll/internal/nvm"
	"incll/internal/shard"
	"incll/internal/txn"
)

// A target is one rung of the ladder: a store opened through one layer's
// public constructor, driven through that layer's public handle. The
// benchmark sees every layer only from outside: it times calls into these
// functions and reads the public counters.

// tx is the transaction surface *txn.Txn and *incll.Txn share.
type tx interface {
	Get(k []byte) (uint64, bool)
	Put(k []byte, v uint64)
	Commit() error
}

// handle is what one client needs from a rung.
type handle interface {
	Get(k []byte) (uint64, bool)
	Put(k []byte, v uint64) bool
	Delete(k []byte) bool
	AppendGet(dst, k []byte) ([]byte, bool)
	PutBytes(k, v []byte) bool
	// Scan visits up to max keys ≥ start in order (max < 0: all).
	Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int
	ScanBytes(start []byte, max int, fn func(k, v []byte) bool) int
	Begin() tx
}

type target interface {
	handle(worker int) handle
	// checkpoint ends the epoch and returns the lines flushed; a rung
	// without epochs does nothing.
	checkpoint() int
	counters() counters
}

// counters is a snapshot of every public counter a rung exposes.
type counters struct {
	nvm                              nvm.StatsSnapshot
	logged, inPerm, inVal, heapBytes int64
	commits                          int64
	limbo                            int64

	// Visible only below the façade (core and shard rungs), summed over
	// shards.
	internals            bool
	heapUsed, heapWords  uint64
	extEntries, extWords int64
}

func (c counters) sub(o counters) counters {
	c.nvm = c.nvm.Sub(o.nvm)
	c.logged -= o.logged
	c.inPerm -= o.inPerm
	c.inVal -= o.inVal
	c.heapBytes -= o.heapBytes
	c.commits -= o.commits
	c.extEntries -= o.extEntries
	c.extWords -= o.extWords
	return c
}

func (c *counters) addCore(s *core.Stats) {
	c.logged += s.LoggedNodes.Load()
	c.inPerm += s.InCLLPerm.Load()
	c.inVal += s.InCLLVal.Load()
	c.heapBytes += s.ValueHeapBytes.Load()
}

func (c *counters) addStore(s *core.Store, heapWords uint64) {
	c.addCore(s.Stats())
	c.internals = true
	c.heapUsed += s.HeapUsed()
	c.heapWords += heapWords
	c.extEntries += s.Log().Entries()
	c.extWords += s.Log().ContentWords()
	c.limbo += s.LimboDepth()
}

func (c *counters) addTxn(m *txn.Manager) {
	if m != nil {
		c.commits = m.Stats().Committed.Load()
	}
}

// ---- cursor-backed handles (core, shard, incll) ----

// storeKV is the part of core.Handle, shard.Handle and incll.Handle that
// has one shape.
type storeKV interface {
	Get(k []byte) (uint64, bool)
	Put(k []byte, v uint64) bool
	Delete(k []byte) bool
	AppendGet(dst, k []byte) ([]byte, bool)
	NewIter(o core.IterOptions) core.Cursor
}

type storeHandle struct {
	storeKV
	putBytes func(k, v []byte) bool
	begin    func() tx // nil: the rung has no transactions
}

func (h storeHandle) PutBytes(k, v []byte) bool { return h.putBytes(k, v) }

func (h storeHandle) Begin() tx {
	if h.begin == nil {
		return directTx{h}
	}
	return h.begin()
}

func (h storeHandle) Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int {
	return h.scan(start, max, func(it core.Cursor) bool { return fn(it.Key(), it.ValueUint64()) })
}

func (h storeHandle) ScanBytes(start []byte, max int, fn func(k, v []byte) bool) int {
	return h.scan(start, max, func(it core.Cursor) bool { return fn(it.Key(), it.Value()) })
}

// scan walks a fresh cursor from start over up to max entries.
func (h storeHandle) scan(start []byte, max int, visit func(core.Cursor) bool) int {
	it := h.NewIter(core.IterOptions{})
	defer it.Close()
	n := 0
	for ok := it.SeekGE(start); ok && n != max; ok = it.Next() {
		n++
		if !visit(it) {
			break
		}
	}
	return n
}

// directTx runs a transfer's reads and writes straight on a handle: the
// rung below the transaction manager, valid with one client.
type directTx struct{ h handle }

func (d directTx) Get(k []byte) (uint64, bool) { return d.h.Get(k) }
func (d directTx) Put(k []byte, v uint64)      { d.h.Put(k, v) }
func (d directTx) Commit() error               { return nil }

// ---- gen: generator and client loop only ----

type nullTarget struct{}
type nullHandle struct{}

func (nullTarget) handle(int) handle  { return nullHandle{} }
func (nullTarget) checkpoint() int    { return 0 }
func (nullTarget) counters() counters { return counters{} }

func (nullHandle) Get([]byte) (uint64, bool)                       { return 0, false }
func (nullHandle) Put([]byte, uint64) bool                         { return false }
func (nullHandle) Delete([]byte) bool                              { return false }
func (nullHandle) AppendGet(dst, _ []byte) ([]byte, bool)          { return dst, false }
func (nullHandle) PutBytes(_, _ []byte) bool                       { return false }
func (nullHandle) Scan([]byte, int, func([]byte, uint64) bool) int { return 0 }
func (nullHandle) ScanBytes([]byte, int, func(k, v []byte) bool) int {
	return 0
}
func (h nullHandle) Begin() tx { return directTx{h} }

// ---- masstree: the transient tree, uint64 values only ----

type mtTarget struct{ t *masstree.Tree }
type mtHandle struct{ masstree.Handle }

func openMasstree() target { return mtTarget{masstree.New()} }

func (t mtTarget) handle(i int) handle { return mtHandle{t.t.Handle(i)} }
func (mtTarget) checkpoint() int       { return 0 }
func (mtTarget) counters() counters    { return counters{} }

func (mtHandle) AppendGet(dst, _ []byte) ([]byte, bool) { panic("masstree rung: no byte values") }
func (mtHandle) PutBytes(_, _ []byte) bool              { panic("masstree rung: no byte values") }
func (mtHandle) ScanBytes([]byte, int, func(k, v []byte) bool) int {
	panic("masstree rung: no byte values")
}
func (h mtHandle) Begin() tx { return directTx{h} }

// beginOn is worker i's transaction constructor on a rung under a
// transaction manager, nil on a plain one.
func beginOn(mgr *txn.Manager, i int) func() tx {
	if mgr == nil {
		return nil
	}
	return func() tx { return mgr.Begin(i) }
}

// advance checkpoints through the manager's commit guard when there is one
// (all checkpoints of a transactional store must), else directly.
func advance(mgr *txn.Manager, plain func() int) int {
	if mgr != nil {
		return mgr.Advance()
	}
	return plain()
}

// ---- core: one core.Store on one nvm.Arena, optionally under txn ----

type coreTarget struct {
	w     *workload
	store *core.Store
	mgr   *txn.Manager // nil: plain store
}

func openCore(w *workload, disableInCLL, withTxn bool) target {
	arena := nvm.New(nvm.Config{Words: w.arenaWords})
	store, _ := core.Open(arena, core.Config{
		Workers:      workers,
		LogSegWords:  w.logSegWords,
		TxnSegWords:  w.txnSegWords,
		HeapWords:    w.heapWords,
		DisableInCLL: disableInCLL,
	})
	t := coreTarget{w: w, store: store}
	if withTxn {
		t.mgr, _ = txn.ForStore(store)
	}
	return t
}

func (t coreTarget) handle(i int) handle {
	ch := t.store.Handle(i)
	return storeHandle{storeKV: ch, putBytes: ch.PutBytes, begin: beginOn(t.mgr, i)}
}

func (t coreTarget) checkpoint() int { return advance(t.mgr, t.store.Advance) }

func (t coreTarget) counters() counters {
	c := counters{nvm: t.store.Arena().Stats().Snapshot()}
	c.addStore(t.store, t.w.heapWords)
	c.addTxn(t.mgr)
	return c
}

// ---- shard: shard.Store with N shards, optionally under txn ----

type shardTarget struct {
	w   *workload
	s   *shard.Store
	mgr *txn.Manager
}

func openShard(w *workload, shards int, withTxn bool) target {
	s, _ := shard.Open(shard.Config{
		Shards:      shards,
		Workers:     workers,
		ArenaWords:  w.arenaWords,
		HeapWords:   w.heapWords,
		LogSegWords: w.logSegWords,
		TxnSegWords: w.txnSegWords,
	})
	t := shardTarget{w: w, s: s}
	if withTxn {
		t.mgr, _ = txn.ForCluster(s)
	}
	return t
}

func (t shardTarget) handle(i int) handle {
	sh := t.s.Handle(i)
	return storeHandle{storeKV: sh, putBytes: sh.PutBytes, begin: beginOn(t.mgr, i)}
}

func (t shardTarget) checkpoint() int { return advance(t.mgr, t.s.Advance) }

func (t shardTarget) counters() counters {
	c := counters{nvm: t.s.NVMStats()}
	for _, st := range t.s.Stores() {
		c.addStore(st, t.w.heapWords)
	}
	c.addTxn(t.mgr)
	return c
}

// ---- incll: the façade, the only rung the end-to-end metrics use ----

type dbTarget struct {
	db *incll.DB
}

func (w *workload) options(phaseSampleEvery int) incll.Options {
	return incll.Options{
		ArenaWords:       w.arenaWords,
		Workers:          workers,
		Shards:           w.shards,
		HeapWords:        w.heapWords,
		LogSegWords:      w.logSegWords,
		TxnSegWords:      w.txnSegWords,
		PhaseSampleEvery: phaseSampleEvery,
	}
}

func openDB(w *workload, phaseSampleEvery int) *dbTarget {
	db, _ := incll.Open(w.options(phaseSampleEvery))
	return &dbTarget{db: db}
}

func (t *dbTarget) handle(i int) handle {
	dh := t.db.Handle(i)
	return storeHandle{
		storeKV: dh,
		putBytes: func(k, v []byte) bool {
			ins, err := dh.PutBytes(k, v)
			if err != nil {
				panic(err) // sizes are fixed by the workload; only a bug gets here
			}
			return ins
		},
		begin: func() tx { return t.db.BeginWorker(i) },
	}
}

func (t *dbTarget) checkpoint() int { return t.db.Checkpoint() }

func (t *dbTarget) counters() counters {
	c := counters{nvm: t.db.NVMStats()}
	c.addCore(t.db.Stats())
	c.commits = t.db.TxnStats().Committed
	c.limbo = t.db.Metrics().LimboDepth
	return c
}

// crashAndReopen injects a power failure (half the dirty lines survive)
// and times recovery.
func (t *dbTarget) crashAndReopen(seed int64) (time.Duration, incll.RecoveryInfo) {
	t.db.SimulateCrash(0.5, seed)
	t0 := time.Now()
	db, info := t.db.Reopen()
	d := time.Since(t0)
	t.db = db
	return d, info
}

// shardImbalance is max ÷ mean operations per shard.
func (t *dbTarget) shardImbalance() float64 {
	n := t.db.Shards()
	var sum, max float64
	for i := 0; i < n; i++ {
		s := t.db.ShardStats(i)
		ops := float64(s.Gets.Load() + s.Puts.Load() + s.Deletes.Load() + s.Scans.Load())
		sum += ops
		if ops > max {
			max = ops
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}
