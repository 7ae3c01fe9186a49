package incll_test

// Benchmarks of the sharded store and the epoch-boundary flush (§6.2),
// driven through the façade. The paper's figures are regenerated by
// `cmd/incll-bench`.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"incll"
	"incll/internal/ycsb"
)

const (
	benchTreeSize = 100_000
	benchInterval = 16 * time.Millisecond
)

// BenchmarkShardScaling measures the sharded store's scale-out curve:
// YCSB-A throughput across shard counts and both key distributions, eight
// workers on their own handles, with the checkpointer ticking. Uniform
// keys spread evenly, so throughput should grow with shards on a
// multi-core runner; zipfian shows how far hot keys cap the win (the hot
// shard stays contended).
func BenchmarkShardScaling(b *testing.B) {
	const workers = 8
	for _, shards := range []int{1, 2, 4, 8} {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, d), func(b *testing.B) {
				db, _ := incll.Open(incll.Options{
					Shards: shards, Workers: workers, ArenaWords: 1 << 22, LogSegWords: 1 << 16,
					EpochInterval: benchInterval,
				})
				defer db.Close()
				for i := uint64(0); i < benchTreeSize; i++ {
					db.Put(incll.Key(i), i)
				}
				db.StartCheckpointer()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						h := db.Handle(w)
						g := ycsb.NewGenerator(ycsb.A, d, benchTreeSize, 1+int64(w)*7919)
						for i := w; i < b.N; i += workers {
							op := g.Next()
							if op.Kind == ycsb.OpPut {
								h.Put(incll.Key(op.Key), uint64(i))
							} else {
								h.Get(incll.Key(op.Key))
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				db.StopCheckpointer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
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
