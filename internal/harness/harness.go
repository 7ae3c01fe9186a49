// Package harness builds and drives the four systems the paper evaluates —
// MT (transient Masstree), MT+ (transient Masstree with the allocator's
// epoch-based recycling and the global epoch barrier), INCLL (the durable
// Masstree of this repository), and LOGGING (INCLL with in-cache-line
// logging disabled) — under the YCSB workloads of §6, and regenerates every
// figure of the evaluation section. All four run the one tree of
// internal/core: MT and MT+ open it over a transient arena
// (nvm.Config.Transient), which keeps no undo state and marks no line
// dirty, so the overhead of INCLL over MT+ is the cost of persistence
// alone.
package harness

import (
	"fmt"
	"sync"
	"time"

	"incll/internal/core"
	"incll/internal/epoch"
	"incll/internal/nvm"
	"incll/internal/obs"
	"incll/internal/ycsb"
)

// Mode selects the system under test.
type Mode int

const (
	// MT is transient Masstree: the core tree over a transient arena,
	// driven through the guard-free entry points, with no epoch
	// boundaries (freed memory is never reused).
	MT Mode = iota
	// MTPlus is MT with the epoch guard and the checkpoint ticker (the
	// paper's strengthened baseline): each boundary stops the world and
	// splices the allocator's limbo for reuse, and flushes nothing.
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

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	Mode     Mode
	Workload ycsb.Workload
	Dist     ycsb.Distribution

	// TreeSize is the number of keys preloaded (the paper uses 20M; the
	// default is 200k).
	TreeSize uint64
	// Threads is the number of worker threads (the paper's default is 8).
	Threads int
	// OpsPerThread is the number of operations each worker executes.
	OpsPerThread int

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
	// latSampleMask). Scans count as one operation.
	P50, P95, P99 time.Duration

	// Persistence counters. The transient modes log and flush nothing:
	// MT+ counts only its boundaries (Advances) and their empty fences.
	LoggedNodes  int64
	InCLLPerm    int64
	InCLLVal     int64
	Fences       int64
	FlushedLines int64
	Evictions    int64
	Advances     int64

	// CheckpointSTW summarizes the measured phase's checkpoint
	// stop-the-world windows — Prepare's world lock to Commit's unlock —
	// in nanoseconds (the preload commit is excluded; empty for MT).
	CheckpointSTW obs.HistSnapshot

	// Phases maps phase name to its sampled latency histogram over the
	// measured phase, in nanoseconds (nil with attribution off; empty for
	// MT, whose guard-free entry points are not sample sites). See
	// DESIGN.md §12.
	Phases map[string]obs.HistSnapshot
	// PhaseSampleEvery is the attribution sampling period the run used (0
	// when attribution was off).
	PhaseSampleEvery int
}

// opValue derives a distinct value for each write.
func opValue(thread, i int) uint64 { return uint64(thread)<<32 | uint64(i) }

// fillPhases folds the attribution histograms into the result.
func fillPhases(r *Result, phases *obs.PhaseSet) {
	if phases == nil {
		return
	}
	r.Phases = phases.Snapshot()
	r.PhaseSampleEvery = phases.SampleEvery()
}

// fillLatencies folds the merged histogram's percentiles into the result.
func fillLatencies(r *Result, h *obs.Histogram) {
	r.P50 = time.Duration(h.Quantile(0.50))
	r.P95 = time.Duration(h.Quantile(0.95))
	r.P99 = time.Duration(h.Quantile(0.99))
}

// SizeArena returns a generous arena size (words) for a run.
func SizeArena(cfg RunConfig) (arenaWords, heapWords, segWords uint64) {
	if cfg.Workload == ycsb.E {
		// YCSB-E's 5% inserts land above the preloaded keyspace and grow
		// the tree for the whole run; size for the final population.
		cfg.TreeSize += uint64(cfg.Threads) * uint64(cfg.OpsPerThread) / 20
	}
	heapWords = cfg.TreeSize*12 + 1<<22
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

// Run executes one measurement: build, preload, run, collect. Every mode
// runs this one path; MT differs only in its transient arena, its
// guard-free point operations and its missing ticker, MT+ in its arena.
func Run(cfg RunConfig) Result {
	cfg.setDefaults()
	arenaWords, heapWords, segWords := SizeArena(cfg)
	a := nvm.New(nvm.Config{
		Words:         arenaWords,
		FenceDelay:    cfg.FenceDelay,
		DirtyCapacity: cfg.DirtyCapacity,
		Seed:          cfg.Seed,
		Transient:     cfg.Mode == MT || cfg.Mode == MTPlus,
	})
	s, _ := core.Open(a, core.Config{
		Workers:      cfg.Threads,
		LogSegWords:  segWords,
		HeapWords:    heapWords,
		DisableInCLL: cfg.Mode == LOGGING,
	})

	parallelLoad(cfg, func(w int, k uint64) {
		s.Handle(w).Put(core.EncodeUint64(k), k)
	})
	s.Advance() // commit the load and reset counters against a clean epoch

	// Instrument after the preload commit: its whole-arena flush would
	// otherwise dominate the stop-the-world histogram's tail, and the
	// attribution histograms should describe the measured phase only.
	stw := new(obs.Histogram)
	s.Epochs().Instrument(nil, stw, 0)
	phases := runPhases(cfg)
	s.InstrumentPhases(phases)

	st0 := s.Stats()
	logged0 := st0.LoggedNodes.Load()
	perm0 := st0.InCLLPerm.Load()
	val0 := st0.InCLLVal.Load()
	as0 := a.Stats().Snapshot()
	adv0 := s.Epochs().Advances()

	// Scans go through one long-lived cursor per worker, opened on its
	// first scan — the pattern a real client uses: re-seek the same
	// iterator per request instead of allocating one per scan.
	iters := make([]*core.Iter, cfg.Threads)
	var tick epoch.Ticker
	if cfg.Mode != MT {
		tick.Start(cfg.EpochInterval, func() { s.Advance() })
	}
	elapsed, lats := runWorkers(cfg, func(w int, op ycsb.Op, i int) {
		h := s.Handle(w)
		k := core.EncodeUint64(op.Key)
		switch {
		case op.Kind == ycsb.OpScan:
			if iters[w] == nil {
				iters[w] = h.NewIter(core.IterOptions{}).(*core.Iter)
			}
			scan(iters[w], k, op.ScanLen)
		case cfg.Mode != MT:
			if op.Kind == ycsb.OpPut {
				h.Put(k, opValue(w, i))
			} else {
				h.Get(k)
			}
		case op.Kind == ycsb.OpPut:
			h.PutLocked(k, opValue(w, i))
		default:
			h.GetLocked(k)
		}
	})
	tick.Stop()

	as := a.Stats().Snapshot().Sub(as0)
	ops := int64(cfg.Threads) * int64(cfg.OpsPerThread)
	r := Result{
		Config:        cfg,
		Elapsed:       elapsed,
		Ops:           ops,
		Throughput:    float64(ops) / elapsed.Seconds(),
		LoggedNodes:   st0.LoggedNodes.Load() - logged0,
		InCLLPerm:     st0.InCLLPerm.Load() - perm0,
		InCLLVal:      st0.InCLLVal.Load() - val0,
		Fences:        as.Fences,
		FlushedLines:  as.LinesPersisted,
		Evictions:     as.Evictions,
		Advances:      s.Epochs().Advances() - adv0,
		CheckpointSTW: stw.Snapshot(),
	}
	fillPhases(&r, phases)
	fillLatencies(&r, lats)
	return r
}

// scan runs one YCSB-E scan op through a worker's cursor, touching every
// value. The loop breaks before the post-advance, so a satisfied scan
// never pays a refill it will discard.
func scan(it *core.Iter, start []byte, length int) {
	ok := it.SeekGE(start)
	for n := 0; ok; {
		_ = it.ValueUint64()
		if n++; n >= length {
			return
		}
		ok = it.Next()
	}
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

// latSampleMask samples one op in 8 for latency: only the sampled ops pay
// the two clock reads, so percentile reporting adds bounded overhead to the
// measured throughput instead of doubling the clock traffic.
const latSampleMask = 7

// runWorkers executes the measured phase, sampling per-op latency into one
// obs.Histogram per worker (nanoseconds), and returns the wall time and the
// merged histogram.
func runWorkers(cfg RunConfig, do func(worker int, op ycsb.Op, i int)) (time.Duration, *obs.Histogram) {
	gens := make([]*ycsb.Generator, cfg.Threads)
	for w := range gens {
		gens[w] = ycsb.NewGenerator(cfg.Workload, cfg.Dist, cfg.TreeSize, cfg.Seed+int64(w)*7919)
	}
	hists := make([]obs.Histogram, cfg.Threads)
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
					h.Record(int64(time.Since(t0)))
				} else {
					do(w, op, i)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	merged := new(obs.Histogram)
	for i := range hists {
		merged.Merge(&hists[i])
	}
	return elapsed, merged
}
