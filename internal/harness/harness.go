// Package harness builds and drives the four systems the paper evaluates —
// MT (transient Masstree, heap allocation), MT+ (transient Masstree, pool
// allocation + global epoch barrier), INCLL (the durable Masstree of this
// repository), and LOGGING (INCLL with in-cache-line logging disabled) —
// under the YCSB workloads of §6, and regenerates every figure of the
// evaluation section.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"incll/internal/core"
	"incll/internal/masstree"
	"incll/internal/nvm"
	"incll/internal/obs"
	"incll/internal/shard"
	"incll/internal/txn"
	"incll/internal/ycsb"
)

// Mode selects the system under test.
type Mode int

const (
	// MT is unmodified transient Masstree with heap allocation.
	MT Mode = iota
	// MTPlus is transient Masstree with the pool allocator and the
	// per-epoch global barrier (the paper's strengthened baseline).
	MTPlus
	// INCLL is the durable Masstree with In-Cache-Line Logging.
	INCLL
	// LOGGING is INCLL with InCLL disabled: every first touch per node
	// per epoch uses the external log (the paper's ablation).
	LOGGING
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case MT:
		return "MT"
	case MTPlus:
		return "MT+"
	case INCLL:
		return "INCLL"
	case LOGGING:
		return "LOGGING"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TxnMode selects the transactional workload layered over the YCSB mix
// (durable modes only).
type TxnMode int

const (
	// TxnNone runs the plain single-key operation stream.
	TxnNone TxnMode = iota
	// TxnRMW turns every generated put into a read-modify-write
	// transaction (read the key, write a derived value, commit); reads and
	// scans stay plain.
	TxnRMW
	// TxnTransfer turns every generated op into a k-key bank transfer:
	// debit the generated key, credit k-1 other accounts, commit. The
	// total balance is a conserved invariant the run verifies at the end.
	TxnTransfer
)

// String names the transactional mode.
func (m TxnMode) String() string {
	switch m {
	case TxnRMW:
		return "rmw"
	case TxnTransfer:
		return "transfer"
	default:
		return "none"
	}
}

// InitBalance is the preloaded per-account balance in transfer mode.
const InitBalance = 1000

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	Mode     Mode
	Workload ycsb.Workload
	Dist     ycsb.Distribution

	// TxnMode layers a transactional workload over the mix (INCLL and
	// LOGGING only).
	TxnMode TxnMode
	// TxnKeys is the number of accounts one transfer touches (default 4).
	TxnKeys int

	// TreeSize is the number of keys preloaded (the paper uses 20M; the
	// default is 200k).
	TreeSize uint64
	// Threads is the number of worker threads (the paper's default is 8).
	Threads int
	// OpsPerThread is the number of operations each worker executes.
	OpsPerThread int

	// Shards partitions the keyspace across this many independent durable
	// stores with coordinated global checkpoints (durable modes only;
	// default 1, the single store the paper evaluates).
	Shards int

	// ValueSize, when > 0, switches the durable workloads to
	// variable-length byte values of up to this many bytes (via
	// PutBytes/GetBytes/ScanBytes) and reports value throughput in MB/s.
	// 0 keeps the paper's uint64 values (durable non-transactional modes
	// only).
	ValueSize int
	// ValueDist selects the payload-size distribution: every value exactly
	// ValueSize bytes (constant, the default), or zipfian-skewed sizes in
	// 1..ValueSize like real object-cache populations.
	ValueDist ycsb.SizeDist

	// ScanLen is YCSB-E's scan length (default ycsb.ScanLength): the
	// constant length, or the maximum when ScanDist is zipfian.
	ScanLen int
	// ScanDist selects the scan-length distribution: every scan exactly
	// ScanLen keys (constant, the default), or zipfian-skewed lengths in
	// 1..ScanLen — the YCSB spec's short-scan-heavy shape.
	ScanDist ycsb.SizeDist
	// ScanReverse runs YCSB-E scans descending (SeekLT/Prev) instead of
	// ascending (durable modes).
	ScanReverse bool

	// EpochInterval is the checkpoint interval (default 64 ms).
	EpochInterval time.Duration
	// FenceDelay emulates NVM write latency after sfence (Figures 3, 8).
	FenceDelay time.Duration

	// DirtyCapacity, when > 0, bounds the simulated cache's dirty set and
	// enables background eviction (ablation; 0 = unbounded).
	DirtyCapacity int

	// PhaseSampleEvery sets the latency-attribution sampling period
	// (durable modes; see obs.PhaseSet and DESIGN.md §12): one op in N is
	// timed phase by phase. 0 means the default (1 in 8); negative
	// disables attribution — the pre-attribution hot path, the A/B
	// baseline.
	PhaseSampleEvery int

	Seed int64
}

func (c *RunConfig) setDefaults() {
	if c.TreeSize == 0 {
		c.TreeSize = 200_000
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 200_000
	}
	if c.TxnKeys <= 1 {
		c.TxnKeys = 4
	}
	if c.ScanLen <= 0 {
		c.ScanLen = ycsb.ScanLength
	}
	if c.EpochInterval == 0 {
		c.EpochInterval = 64 * time.Millisecond
	}
}

// runPhases builds the attribution timer per PhaseSampleEvery (nil when
// disabled).
func runPhases(cfg RunConfig) *obs.PhaseSet {
	if cfg.PhaseSampleEvery < 0 {
		return nil
	}
	every := cfg.PhaseSampleEvery
	if every == 0 {
		every = obs.DefaultPhaseSample
	}
	return obs.NewPhaseSet(cfg.Threads, every)
}

// Result reports one run's measurements.
type Result struct {
	Config     RunConfig
	Elapsed    time.Duration
	Ops        int64
	Throughput float64 // operations per second

	// Per-operation latency percentiles (sampled, 1 op in 8; see
	// latency.go). Scans count as one operation.
	P50, P95, P99 time.Duration

	// Durable-mode extras (zero for MT / MT+).
	LoggedNodes  int64
	InCLLPerm    int64
	InCLLVal     int64
	Fences       int64
	FlushedLines int64
	Evictions    int64
	Advances     int64
	FlushTime    time.Duration // cumulative wall time inside global flushes

	// CheckpointSTW summarizes the measured phase's checkpoint
	// stop-the-world windows — Prepare's world lock to Commit's unlock —
	// in nanoseconds (durable modes; the preload commit is excluded). On
	// a sharded run each shard's window is one sample.
	CheckpointSTW obs.HistSnapshot

	// PerShardOps counts the operations each shard served during the
	// measured phase (sharded runs only; nil otherwise).
	PerShardOps []int64

	// Phases maps phase name to its sampled latency histogram over the
	// measured phase, in nanoseconds (durable modes with attribution on;
	// nil otherwise). See DESIGN.md §12.
	Phases map[string]obs.HistSnapshot
	// PhaseSampleEvery is the attribution sampling period the run used (0
	// when attribution was off).
	PhaseSampleEvery int

	// Byte-value extras (zero unless RunConfig.ValueSize > 0).
	ValueBytes int64   // payload bytes written by puts + read by gets/scans
	MBPerSec   float64 // ValueBytes per second, in MB

	// Transactional-mode extras (zero when TxnMode is TxnNone).
	Txns          int64   // transactions committed
	TxnConflicts  int64   // commits retried after read validation failed
	TxnThroughput float64 // committed transactions per second
	// SumConserved reports whether the bank's total balance survived the
	// run exactly (transfer mode only; true is the invariant holding).
	SumConserved bool
}

// Run executes one measurement: build, preload, run, collect.
func Run(cfg RunConfig) Result {
	cfg.setDefaults()
	switch cfg.Mode {
	case MT, MTPlus:
		if cfg.ValueSize > 0 {
			panic("harness: ValueSize requires a durable mode (the transient baselines hold uint64 values)")
		}
		if cfg.ScanReverse {
			panic("harness: reverse scans require a durable mode (the transient baselines have no cursor)")
		}
		return runTransient(cfg)
	default:
		if cfg.ValueSize > 0 && cfg.TxnMode != TxnNone {
			panic("harness: ValueSize and TxnMode are mutually exclusive (transfers are uint64 accounts)")
		}
		if cfg.Shards > 1 {
			return runSharded(cfg)
		}
		return runDurable(cfg)
	}
}

// opValue derives a distinct value for each write.
func opValue(thread, i int) uint64 { return uint64(thread)<<32 | uint64(i) }

// ---- transient modes ----

func runTransient(cfg RunConfig) Result {
	var tr *masstree.Tree
	var barrier *masstree.Barrier
	if cfg.Mode == MTPlus {
		barrier = masstree.NewBarrier()
		pool := masstree.NewPool(cfg.Threads, barrier)
		tr = masstree.NewWithPool(pool, barrier)
	} else {
		tr = masstree.New()
	}

	parallelLoad(cfg, func(w int, k uint64) {
		tr.Handle(w).Put(masstree.EncodeUint64(k), k)
	})

	stopTick := make(chan struct{})
	var tickDone sync.WaitGroup
	if barrier != nil {
		tickDone.Add(1)
		go func() {
			defer tickDone.Done()
			t := time.NewTicker(cfg.EpochInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					barrier.Advance()
				case <-stopTick:
					return
				}
			}
		}()
	}

	elapsed, lats := runWorkers(cfg, func(w int, op ycsb.Op, i int) {
		h := tr.Handle(w)
		switch op.Kind {
		case ycsb.OpPut:
			h.Put(masstree.EncodeUint64(op.Key), opValue(w, i))
		case ycsb.OpGet:
			h.Get(masstree.EncodeUint64(op.Key))
		case ycsb.OpScan:
			h.Scan(masstree.EncodeUint64(op.Key), op.ScanLen, func([]byte, uint64) bool { return true })
		}
	})

	close(stopTick)
	tickDone.Wait()

	ops := int64(cfg.Threads) * int64(cfg.OpsPerThread)
	r := Result{
		Config:     cfg,
		Elapsed:    elapsed,
		Ops:        ops,
		Throughput: float64(ops) / elapsed.Seconds(),
	}
	fillLatencies(&r, lats)
	return r
}

// fillPhases folds the attribution histograms into the result.
func fillPhases(r *Result, phases *obs.PhaseSet) {
	if phases == nil {
		return
	}
	r.Phases = phases.Snapshot()
	r.PhaseSampleEvery = phases.SampleEvery()
}

// fillLatencies folds the merged histogram's percentiles into the result.
func fillLatencies(r *Result, h *latHist) {
	r.P50 = h.percentile(50)
	r.P95 = h.percentile(95)
	r.P99 = h.percentile(99)
}

// ---- durable modes ----

// SizeArena returns a generous arena size (words) for a durable run.
func SizeArena(cfg RunConfig) (arenaWords, heapWords, segWords uint64) {
	if cfg.Workload == ycsb.E {
		// YCSB-E's 5% inserts land above the preloaded keyspace and grow
		// the tree for the whole run; size for the final population.
		cfg.TreeSize += uint64(cfg.Threads) * uint64(cfg.OpsPerThread) / 20
	}
	heapWords = cfg.TreeSize*12 + 1<<22
	if cfg.ValueSize > 0 {
		// Out-of-place value blocks: class rounding costs at most 1.5×
		// past a cache line, plus the allocator header. Beyond the live
		// tree, in-flight churn holds up to ~an epoch of superseded blocks
		// on the limbo lists before they recycle.
		perVal := (1+uint64(cfg.ValueSize+7)/8)*3/2 + 8
		churn := uint64(cfg.Threads) * uint64(cfg.OpsPerThread)
		if churn > 1<<16 {
			churn = 1 << 16
		}
		heapWords += (cfg.TreeSize + churn) * perVal
	}
	segWords = uint64(1<<25) / uint64(cfg.Threads)
	if segWords < 1<<20 {
		segWords = 1 << 20
	}
	if segWords > 1<<23 {
		segWords = 1 << 23
	}
	arenaWords = heapWords + segWords*uint64(cfg.Threads) + 1<<21
	return
}

// txnSegWords is the per-worker intent segment a transactional run uses:
// large enough to absorb one epoch of commit traffic without forcing early
// boundaries.
const txnSegWords = 1 << 17

// preloadValue is what the loader stores under key k.
func preloadValue(cfg RunConfig, k uint64) uint64 {
	if cfg.TxnMode == TxnTransfer {
		return InitBalance
	}
	return k
}

func runDurable(cfg RunConfig) Result {
	arenaWords, heapWords, segWords := SizeArena(cfg)
	coreCfg := core.Config{
		Workers:      cfg.Threads,
		LogSegWords:  segWords,
		HeapWords:    heapWords,
		DisableInCLL: cfg.Mode == LOGGING,
	}
	if cfg.TxnMode != TxnNone {
		coreCfg.TxnSegWords = txnSegWords
		arenaWords += txnSegWords*uint64(cfg.Threads) + 1<<18
	}
	a := nvm.New(nvm.Config{
		Words:         arenaWords,
		FenceDelay:    cfg.FenceDelay,
		DirtyCapacity: cfg.DirtyCapacity,
		Seed:          cfg.Seed,
	})
	s, _ := core.Open(a, coreCfg)

	preload(cfg, func(w int) kvHandle { return s.Handle(w) })
	s.Advance() // commit the load and reset counters against a clean epoch

	// Instrument after the preload commit: its whole-arena flush would
	// otherwise dominate the stop-the-world histogram's tail, and the
	// attribution histograms should describe the measured phase only.
	stw := new(obs.Histogram)
	s.Epochs().Instrument(nil, stw, 0)
	phases := runPhases(cfg)
	s.InstrumentPhases(phases)

	var m *txn.Manager
	if cfg.TxnMode != TxnNone {
		m, _ = txn.ForStore(s)
		m.Instrument(phases)
	}

	st0 := s.Stats()
	logged0 := st0.LoggedNodes.Load()
	perm0 := st0.InCLLPerm.Load()
	val0 := st0.InCLLVal.Load()
	as0 := a.Stats().Snapshot()
	adv0 := s.Epochs().Advances()

	handle := func(w int) kvHandle { return s.Handle(w) }
	bytesMoved := make([]int64, cfg.Threads)
	do := durableOps(cfg, handle, bytesMoved)
	if m != nil {
		do = durableTxnOps(cfg, m, handle)
		m.StartTicker(cfg.EpochInterval)
	} else {
		s.StartTicker(cfg.EpochInterval)
	}
	elapsed, lats := runWorkers(cfg, do)
	if m != nil {
		m.StopTicker()
	} else {
		s.StopTicker()
	}

	as := a.Stats().Snapshot().Sub(as0)
	ops := int64(cfg.Threads) * int64(cfg.OpsPerThread)
	r := Result{
		Config:       cfg,
		Elapsed:      elapsed,
		Ops:          ops,
		Throughput:   float64(ops) / elapsed.Seconds(),
		LoggedNodes:  st0.LoggedNodes.Load() - logged0,
		InCLLPerm:    st0.InCLLPerm.Load() - perm0,
		InCLLVal:     st0.InCLLVal.Load() - val0,
		Fences:       as.Fences,
		FlushedLines: as.LinesPersisted,
		Evictions:    as.Evictions,
		Advances:     s.Epochs().Advances() - adv0,
	}
	r.CheckpointSTW = stw.Snapshot()
	fillPhases(&r, phases)
	fillLatencies(&r, lats)
	fillByteResult(&r, cfg, bytesMoved, elapsed)
	fillTxnResult(&r, cfg, m, elapsed, handle(0))
	return r
}

// runSharded measures a sharded cluster: N stores over N arenas behind the
// key router, checkpointed by the coordinated global ticker.
func runSharded(cfg RunConfig) Result {
	// Size each shard's arena for its slice of the keyspace (routing is
	// hash-spread, so slices are near-even; the slack term absorbs skew).
	per := cfg
	per.TreeSize = cfg.TreeSize/uint64(cfg.Shards) + cfg.TreeSize/uint64(4*cfg.Shards)
	arenaWords, heapWords, segWords := SizeArena(per)
	shardCfg := shard.Config{
		Shards:       cfg.Shards,
		Workers:      cfg.Threads,
		ArenaWords:   arenaWords,
		HeapWords:    heapWords,
		LogSegWords:  segWords,
		DisableInCLL: cfg.Mode == LOGGING,
		NVM: nvm.Config{
			FenceDelay:    cfg.FenceDelay,
			DirtyCapacity: cfg.DirtyCapacity,
			Seed:          cfg.Seed,
		},
	}
	if cfg.TxnMode != TxnNone {
		shardCfg.TxnSegWords = txnSegWords
		shardCfg.ArenaWords += txnSegWords*uint64(cfg.Threads) + 1<<18
	}
	s, _ := shard.Open(shardCfg)

	preload(cfg, func(w int) kvHandle { return s.Handle(w) })
	s.Advance() // commit the load against a clean global epoch

	// Instrument after the preload commit (see runDurable); every shard's
	// window lands in the one histogram, one sample per shard per advance,
	// and all shards share one attribution timer.
	stw := new(obs.Histogram)
	phases := runPhases(cfg)
	for i := 0; i < cfg.Shards; i++ {
		s.ShardStore(i).Epochs().Instrument(nil, stw, i)
		s.ShardStore(i).InstrumentPhases(phases)
	}

	var m *txn.Manager
	if cfg.TxnMode != TxnNone {
		m, _ = txn.ForCluster(s)
		m.Instrument(phases)
	}

	st0 := s.Stats()
	shardOps0 := make([]int64, cfg.Shards)
	for i := range shardOps0 {
		shardOps0[i] = shardOpCount(s.ShardStore(i).Stats())
	}
	nv0 := s.NVMStats()
	adv0 := s.GlobalEpoch()

	handle := func(w int) kvHandle { return s.Handle(w) }
	bytesMoved := make([]int64, cfg.Threads)
	do := durableOps(cfg, handle, bytesMoved)
	if m != nil {
		do = durableTxnOps(cfg, m, handle)
		m.StartTicker(cfg.EpochInterval)
	} else {
		s.StartTicker(cfg.EpochInterval)
	}
	elapsed, lats := runWorkers(cfg, do)
	if m != nil {
		m.StopTicker()
	} else {
		s.StopTicker()
	}

	st := s.Stats()
	nv := s.NVMStats().Sub(nv0)
	perShard := make([]int64, cfg.Shards)
	for i := range perShard {
		perShard[i] = shardOpCount(s.ShardStore(i).Stats()) - shardOps0[i]
	}
	ops := int64(cfg.Threads) * int64(cfg.OpsPerThread)
	r := Result{
		Config:       cfg,
		Elapsed:      elapsed,
		Ops:          ops,
		Throughput:   float64(ops) / elapsed.Seconds(),
		LoggedNodes:  st.LoggedNodes.Load() - st0.LoggedNodes.Load(),
		InCLLPerm:    st.InCLLPerm.Load() - st0.InCLLPerm.Load(),
		InCLLVal:     st.InCLLVal.Load() - st0.InCLLVal.Load(),
		Fences:       nv.Fences,
		FlushedLines: nv.LinesPersisted,
		Evictions:    nv.Evictions,
		Advances:     int64(s.GlobalEpoch() - adv0),
		PerShardOps:  perShard,
	}
	r.CheckpointSTW = stw.Snapshot()
	fillPhases(&r, phases)
	fillLatencies(&r, lats)
	fillByteResult(&r, cfg, bytesMoved, elapsed)
	fillTxnResult(&r, cfg, m, elapsed, handle(0))
	return r
}

// preload fills the store with TreeSize keys: uint64 values by default,
// deterministic byte payloads when ValueSize is set.
func preload(cfg RunConfig, handle func(w int) kvHandle) {
	if cfg.ValueSize <= 0 {
		parallelLoad(cfg, func(w int, k uint64) {
			handle(w).Put(core.EncodeUint64(k), preloadValue(cfg, k))
		})
		return
	}
	scratch := make([][]byte, cfg.Threads)
	for w := range scratch {
		scratch[w] = make([]byte, cfg.ValueSize)
	}
	parallelLoad(cfg, func(w int, k uint64) {
		handle(w).PutBytes(core.EncodeUint64(k), preloadBytes(cfg, k, scratch[w]))
	})
}

// fillByteResult folds the per-worker payload byte counts into the result.
func fillByteResult(r *Result, cfg RunConfig, bytesMoved []int64, elapsed time.Duration) {
	if cfg.ValueSize <= 0 {
		return
	}
	for _, b := range bytesMoved {
		r.ValueBytes += b
	}
	r.MBPerSec = float64(r.ValueBytes) / elapsed.Seconds() / 1e6
}

// fillTxnResult reads the manager's counters into the result and, in
// transfer mode, verifies the conserved-sum invariant with one full scan.
func fillTxnResult(r *Result, cfg RunConfig, m *txn.Manager, elapsed time.Duration, h kvHandle) {
	if m == nil {
		return
	}
	st := m.Stats()
	r.Txns = st.Committed.Load()
	r.TxnConflicts = st.Conflicts.Load()
	r.TxnThroughput = float64(r.Txns) / elapsed.Seconds()
	if cfg.TxnMode == TxnTransfer {
		var sum uint64
		h.Scan(nil, -1, func(_ []byte, v uint64) bool {
			sum += v
			return true
		})
		r.SumConserved = sum == cfg.TreeSize*InitBalance
	}
}

// durableTxnOps builds the transactional measured-phase dispatcher. RMW
// turns each generated put into a read-modify-write commit; transfer turns
// every generated op into a TxnKeys-account transfer debiting the
// generated key. Conflicted commits retry until they land.
func durableTxnOps(cfg RunConfig, m *txn.Manager, handle func(w int) kvHandle) func(w int, op ycsb.Op, i int) {
	plain := durableOps(cfg, handle, nil)
	rngs := make([]*rand.Rand, cfg.Threads)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(cfg.Seed ^ int64(w+1)*104729))
	}
	credits := uint64(cfg.TxnKeys - 1)
	return func(w int, op ycsb.Op, i int) {
		switch cfg.TxnMode {
		case TxnRMW:
			if op.Kind != ycsb.OpPut {
				plain(w, op, i)
				return
			}
			kb := core.EncodeUint64(op.Key)
			for {
				t := m.Begin(w)
				v, _ := t.Get(kb)
				t.Put(kb, v+1)
				err := t.Commit()
				if err == nil {
					return
				}
				if !errors.Is(err, txn.ErrConflict) {
					panic(fmt.Sprintf("harness: rmw commit: %v", err))
				}
			}
		case TxnTransfer:
			rng := rngs[w]
			from := op.Key % cfg.TreeSize
			debit := core.EncodeUint64(from)
			for {
				t := m.Begin(w)
				fv, ok := t.Get(debit)
				if !ok || fv < credits {
					t.Abort() // broke account: skip, conserving the sum
					return
				}
				t.Put(debit, fv-credits)
				for credited := uint64(0); credited < credits; {
					ck := uint64(rng.Int63n(int64(cfg.TreeSize)))
					if ck == from {
						continue
					}
					ckb := core.EncodeUint64(ck)
					if cv, ok := t.Get(ckb); ok {
						t.Put(ckb, cv+1)
						credited++
					}
				}
				err := t.Commit()
				if err == nil {
					return
				}
				if !errors.Is(err, txn.ErrConflict) {
					panic(fmt.Sprintf("harness: transfer commit: %v", err))
				}
			}
		}
	}
}

// shardOpCount sums one store's operation counters.
func shardOpCount(st *core.Stats) int64 {
	return st.Puts.Load() + st.Gets.Load() + st.Deletes.Load() + st.Scans.Load()
}

// kvHandle is the worker-op surface shared by core.Handle and
// shard.Handle.
type kvHandle interface {
	Put(k []byte, v uint64) bool
	PutBytes(k []byte, v []byte) bool
	Get(k []byte) (uint64, bool)
	AppendGet(dst []byte, k []byte) ([]byte, bool)
	NewIter(o core.IterOptions) core.Cursor
	Scan(start []byte, max int, fn func(k []byte, v uint64) bool) int
}

// workerIters lazily opens one long-lived cursor per worker — the cursor
// pattern a real client uses: re-seek the same iterator per request
// instead of allocating one per scan.
type workerIters struct {
	cfg     RunConfig
	handles func(w int) kvHandle
	its     []core.Cursor
}

func newWorkerIters(cfg RunConfig, handle func(w int) kvHandle) *workerIters {
	return &workerIters{cfg: cfg, handles: handle, its: make([]core.Cursor, cfg.Threads)}
}

func (wi *workerIters) iter(w int) core.Cursor {
	if wi.its[w] == nil {
		wi.its[w] = wi.handles(w).NewIter(core.IterOptions{})
	}
	return wi.its[w]
}

// scan runs one YCSB-E scan op through worker w's cursor, touching every
// value; with sumBytes it returns the visited payload bytes (the byte
// workload's metric). Honours ScanReverse. The unsharded cursor is
// type-specialized — what any perf-sensitive client does for its hot
// loop: the concrete calls inline, where the interface-dispatched merge
// path cannot. Both loop bodies break before the post-advance so a
// satisfied scan never pays a refill it will discard.
func (wi *workerIters) scan(w int, op ycsb.Op, sumBytes bool) (bytes int64) {
	if it, ok := wi.iter(w).(*core.Iter); ok {
		ok := false
		if wi.cfg.ScanReverse {
			ok = it.SeekLT(core.EncodeUint64(op.Key))
		} else {
			ok = it.SeekGE(core.EncodeUint64(op.Key))
		}
		for n := 0; ok; {
			if sumBytes {
				bytes += int64(len(it.Value()))
			} else {
				_ = it.ValueUint64()
			}
			if n++; n >= op.ScanLen {
				return bytes
			}
			if wi.cfg.ScanReverse {
				ok = it.Prev()
			} else {
				ok = it.Next()
			}
		}
		return bytes
	}
	it := wi.iter(w)
	ok := false
	if wi.cfg.ScanReverse {
		ok = it.SeekLT(core.EncodeUint64(op.Key))
	} else {
		ok = it.SeekGE(core.EncodeUint64(op.Key))
	}
	for n := 0; ok; {
		if sumBytes {
			bytes += int64(len(it.Value()))
		} else {
			_ = it.ValueUint64()
		}
		if n++; n >= op.ScanLen {
			return bytes
		}
		if wi.cfg.ScanReverse {
			ok = it.Prev()
		} else {
			ok = it.Next()
		}
	}
	return bytes
}

// durableOps builds the measured-phase op dispatcher over per-worker
// handles (shared by the single-store and sharded durable runs). Scans go
// through the cursor API (one re-seeked iterator per worker). With
// ValueSize > 0 it dispatches the byte-valued mix and accumulates the
// payload bytes each worker moves into bytesMoved[w].
func durableOps(cfg RunConfig, handle func(w int) kvHandle, bytesMoved []int64) func(w int, op ycsb.Op, i int) {
	iters := newWorkerIters(cfg, handle)
	if cfg.ValueSize <= 0 {
		return func(w int, op ycsb.Op, i int) {
			h := handle(w)
			switch op.Kind {
			case ycsb.OpPut:
				h.Put(core.EncodeUint64(op.Key), opValue(w, i))
			case ycsb.OpGet:
				h.Get(core.EncodeUint64(op.Key))
			case ycsb.OpScan:
				iters.scan(w, op, false)
			}
		}
	}
	sizers := make([]*ycsb.SizeGen, cfg.Threads)
	rngs := make([]*rand.Rand, cfg.Threads)
	scratch := make([][]byte, cfg.Threads)
	for w := range sizers {
		sizers[w] = ycsb.NewSizeGen(cfg.ValueDist, cfg.ValueSize)
		rngs[w] = rand.New(rand.NewSource(cfg.Seed ^ int64(w+1)*15485863))
		scratch[w] = make([]byte, 0, cfg.ValueSize)
	}
	return func(w int, op ycsb.Op, i int) {
		h := handle(w)
		switch op.Kind {
		case ycsb.OpPut:
			n := sizers[w].Next(rngs[w])
			v := fillPayload(scratch[w][:n], op.Key, uint64(w)<<32|uint64(i))
			h.PutBytes(core.EncodeUint64(op.Key), v)
			bytesMoved[w] += int64(n)
		case ycsb.OpGet:
			if v, ok := h.AppendGet(scratch[w][:0], core.EncodeUint64(op.Key)); ok {
				bytesMoved[w] += int64(len(v))
			}
		case ycsb.OpScan:
			bytesMoved[w] += iters.scan(w, op, true)
		}
	}
}

// fillPayload fills dst with a cheap deterministic pattern derived from the
// key and a per-write salt, so every overwrite stores distinct bytes.
func fillPayload(dst []byte, key, salt uint64) []byte {
	x := ycsb.Scramble(key ^ salt ^ 0x9E3779B97F4A7C15)
	for i := range dst {
		if i%8 == 0 {
			x = ycsb.Scramble(x)
		}
		dst[i] = byte(x >> (8 * uint(i%8)))
	}
	return dst
}

// preloadBytes is the byte payload the loader stores under key k.
func preloadBytes(cfg RunConfig, k uint64, scratch []byte) []byte {
	n := cfg.ValueSize
	if cfg.ValueDist == ycsb.SizeZipfian {
		// Deterministic per-key size with the same 1..max support.
		n = 1 + int(ycsb.Scramble(k)%uint64(cfg.ValueSize))
	}
	return fillPayload(scratch[:n], k, 0)
}

// parallelLoad inserts keys 0..TreeSize-1 using all workers.
func parallelLoad(cfg RunConfig, put func(worker int, key uint64)) {
	var wg sync.WaitGroup
	per := cfg.TreeSize / uint64(cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		lo := uint64(w) * per
		hi := lo + per
		if w == cfg.Threads-1 {
			hi = cfg.TreeSize
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			for k := lo; k < hi; k++ {
				put(w, k)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// runWorkers executes the measured phase, sampling per-op latency (one op
// in 8 pays the clock reads; see latency.go), and returns the wall time and
// the merged latency histogram.
func runWorkers(cfg RunConfig, do func(worker int, op ycsb.Op, i int)) (time.Duration, *latHist) {
	gens := make([]*ycsb.Generator, cfg.Threads)
	for w := range gens {
		gens[w] = ycsb.NewGenerator(cfg.Workload, cfg.Dist, cfg.TreeSize, cfg.Seed+int64(w)*7919)
		gens[w].SetScanLength(cfg.ScanDist, cfg.ScanLen)
	}
	hists := make([]latHist, cfg.Threads)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gens[w]
			h := &hists[w]
			for i := 0; i < cfg.OpsPerThread; i++ {
				op := g.Next()
				if i&latSampleMask == 0 {
					t0 := time.Now()
					do(w, op, i)
					h.record(time.Since(t0))
				} else {
					do(w, op, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), mergeLatencies(hists)
}
