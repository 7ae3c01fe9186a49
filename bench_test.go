package incll_test

// One benchmark per figure of the paper's evaluation (§6). These are the
// testing.B building blocks; `cmd/incll-bench` runs the full multi-thread
// figure sweeps and prints the same series the paper plots, and
// `incll-bench -exp recovery` is the §6.3 recovery experiment.
//
// Setup (tree preload) happens outside the timer; the measured region is
// the operation stream of the figure's workload.

import (
	"fmt"
	"testing"
	"time"

	"incll"
	"incll/internal/core"
	"incll/internal/harness"
	"incll/internal/masstree"
	"incll/internal/nvm"
	"incll/internal/ycsb"
)

const (
	benchTreeSize = 100_000
	benchInterval = 16 * time.Millisecond
)

// benchTarget abstracts the four systems for the op loop.
type benchTarget struct {
	put  func(k []byte, v uint64)
	get  func(k []byte)
	scan func(k []byte)
	stop func()
	// durable-only introspection
	loggedNodes func() int64
}

func setupTransient(b *testing.B, mode harness.Mode) benchTarget {
	b.Helper()
	var tr *masstree.Tree
	stop := func() {}
	if mode == harness.MTPlus {
		bar := masstree.NewBarrier()
		pool := masstree.NewPool(1, bar)
		tr = masstree.NewWithPool(pool, bar)
		done := make(chan struct{})
		go func() {
			t := time.NewTicker(benchInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					bar.Advance()
				case <-done:
					return
				}
			}
		}()
		stop = func() { close(done) }
	} else {
		tr = masstree.New()
	}
	for i := uint64(0); i < benchTreeSize; i++ {
		tr.Put(masstree.EncodeUint64(i), i)
	}
	h := tr.Handle(0)
	return benchTarget{
		put:  func(k []byte, v uint64) { h.Put(k, v) },
		get:  func(k []byte) { h.Get(k) },
		scan: func(k []byte) { h.Scan(k, ycsb.ScanLength, func([]byte, uint64) bool { return true }) },
		stop: stop,
	}
}

func setupDurable(b *testing.B, disableInCLL bool, fence time.Duration) benchTarget {
	b.Helper()
	cfg := harness.RunConfig{TreeSize: benchTreeSize, Threads: 1}
	arenaWords, heapWords, segWords := harness.SizeArena(cfg)
	a := nvm.New(nvm.Config{Words: arenaWords, FenceDelay: fence})
	s, _ := core.Open(a, core.Config{
		Workers: 1, LogSegWords: segWords, HeapWords: heapWords, DisableInCLL: disableInCLL,
	})
	for i := uint64(0); i < benchTreeSize; i++ {
		s.Put(core.EncodeUint64(i), i)
	}
	s.Advance()
	s.StartTicker(benchInterval)
	h := s.Handle(0)
	return benchTarget{
		put:         func(k []byte, v uint64) { h.Put(k, v) },
		get:         func(k []byte) { h.Get(k) },
		scan:        func(k []byte) { h.Scan(k, ycsb.ScanLength, func([]byte, uint64) bool { return true }) },
		stop:        s.StopTicker,
		loggedNodes: s.Stats().LoggedNodes.Load,
	}
}

func setupMode(b *testing.B, mode harness.Mode, fence time.Duration) benchTarget {
	switch mode {
	case harness.MT, harness.MTPlus:
		return setupTransient(b, mode)
	case harness.LOGGING:
		return setupDurable(b, true, fence)
	default:
		return setupDurable(b, false, fence)
	}
}

func runOps(b *testing.B, tgt benchTarget, w ycsb.Workload, d ycsb.Distribution) {
	g := ycsb.NewGenerator(w, d, benchTreeSize, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := g.Next()
		switch op.Kind {
		case ycsb.OpPut:
			tgt.put(core.EncodeUint64(op.Key), uint64(i))
		case ycsb.OpGet:
			tgt.get(core.EncodeUint64(op.Key))
		case ycsb.OpScan:
			tgt.scan(core.EncodeUint64(op.Key))
		}
	}
	b.StopTimer()
	tgt.stop()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkFig2 measures MT, MT+ and INCLL across the four YCSB workloads
// and both key distributions (Figure 2).
func BenchmarkFig2(b *testing.B) {
	for _, mode := range []harness.Mode{harness.MT, harness.MTPlus, harness.INCLL} {
		for _, w := range []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.E} {
			for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
				b.Run(fmt.Sprintf("%s/%s/%s", mode, w, d), func(b *testing.B) {
					runOps(b, setupMode(b, mode, 0), w, d)
				})
			}
		}
	}
}

// BenchmarkFig3 measures INCLL under emulated NVM latency (Figure 3).
func BenchmarkFig3(b *testing.B) {
	for _, fence := range harness.FenceDelays {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			b.Run(fmt.Sprintf("fence=%s/%s", fence, d), func(b *testing.B) {
				runOps(b, setupDurable(b, false, fence), ycsb.A, d)
			})
		}
	}
}

// BenchmarkFig4 measures MT+ vs INCLL with concurrent workers (Figure 4's
// thread axis; the full sweep is `incll-bench -fig 4`).
func BenchmarkFig4(b *testing.B) {
	for _, mode := range []harness.Mode{harness.MTPlus, harness.INCLL} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/threads=%d", mode, threads), func(b *testing.B) {
				r := harness.Run(harness.RunConfig{
					Mode: mode, Workload: ycsb.A, Dist: ycsb.Uniform,
					TreeSize: benchTreeSize, Threads: threads,
					OpsPerThread: 50_000, EpochInterval: benchInterval, Seed: 1,
				})
				b.ReportMetric(r.Throughput/1e6, "Mops/s")
				b.ReportMetric(0, "ns/op") // wall-clock measured inside the harness
			})
		}
	}
}

// BenchmarkFig5 measures MT+ vs INCLL across tree sizes (Figures 5 and 6).
func BenchmarkFig5(b *testing.B) {
	for _, mode := range []harness.Mode{harness.MTPlus, harness.INCLL} {
		for _, size := range []uint64{10_000, 100_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/size=%d", mode, size), func(b *testing.B) {
				r := harness.Run(harness.RunConfig{
					Mode: mode, Workload: ycsb.A, Dist: ycsb.Uniform,
					TreeSize: size, Threads: 1,
					OpsPerThread: 100_000, EpochInterval: benchInterval, Seed: 1,
				})
				b.ReportMetric(r.Throughput/1e6, "Mops/s")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig7 measures logged nodes per operation, LOGGING vs INCLL
// (Figure 7's metric).
func BenchmarkFig7(b *testing.B) {
	for _, mode := range []harness.Mode{harness.LOGGING, harness.INCLL} {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			b.Run(fmt.Sprintf("%s/%s", mode, d), func(b *testing.B) {
				tgt := setupMode(b, mode, 0)
				before := tgt.loggedNodes()
				runOps(b, tgt, ycsb.A, d)
				b.ReportMetric(float64(tgt.loggedNodes()-before)/float64(b.N), "logged/op")
			})
		}
	}
}

// BenchmarkFig8 measures LOGGING vs INCLL under emulated NVM latency
// (Figure 8).
func BenchmarkFig8(b *testing.B) {
	for _, mode := range []harness.Mode{harness.LOGGING, harness.INCLL} {
		for _, fence := range []time.Duration{0, 500 * time.Nanosecond, time.Microsecond} {
			b.Run(fmt.Sprintf("%s/fence=%s", mode, fence), func(b *testing.B) {
				runOps(b, setupMode(b, mode, fence), ycsb.A, ycsb.Uniform)
			})
		}
	}
}

// BenchmarkShardScaling measures the sharded store's scale-out curve:
// YCSB-A throughput across shard counts and both key distributions, with
// the coordinated global checkpointer ticking. Uniform keys spread evenly,
// so throughput should grow with shards on a multi-core runner; zipfian
// shows how far hot keys cap the win (the hot shard stays contended).
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, d), func(b *testing.B) {
				r := harness.Run(harness.RunConfig{
					Mode: harness.INCLL, Workload: ycsb.A, Dist: d,
					TreeSize: benchTreeSize, Threads: 8, Shards: shards,
					OpsPerThread: 50_000, EpochInterval: benchInterval, Seed: 1,
				})
				b.ReportMetric(r.Throughput/1e6, "Mops/s")
				b.ReportMetric(0, "ns/op") // wall-clock measured inside the harness
			})
		}
	}
}

// BenchmarkShardCheckpoint measures the coordinated global checkpoint cost
// across shard counts: the same dirty set, flushed by 1 vs N arenas.
func BenchmarkShardCheckpoint(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, _ := incll.Open(incll.Options{Shards: shards, ArenaWords: 1 << 22})
			for i := uint64(0); i < benchTreeSize; i++ {
				db.Put(incll.Key(i), i)
			}
			g := ycsb.NewGenerator(ycsb.A, ycsb.Uniform, benchTreeSize, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 2000; j++ { // dirty one epoch's worth of lines
					op := g.Next()
					if op.Kind == ycsb.OpPut {
						db.Put(incll.Key(op.Key), op.Key)
					}
				}
				b.StartTimer()
				db.Checkpoint()
			}
		})
	}
}

// BenchmarkGlobalFlush measures the epoch-boundary flush (§6.2).
func BenchmarkGlobalFlush(b *testing.B) {
	db, _ := incll.Open(incll.Options{ArenaWords: 1 << 24})
	for i := uint64(0); i < benchTreeSize; i++ {
		db.Put(incll.Key(i), i)
	}
	g := ycsb.NewGenerator(ycsb.A, ycsb.Uniform, benchTreeSize, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 2000; j++ { // dirty one epoch's worth of lines
			op := g.Next()
			if op.Kind == ycsb.OpPut {
				db.Put(incll.Key(op.Key), op.Key)
			}
		}
		b.StartTimer()
		db.Checkpoint()
	}
}
