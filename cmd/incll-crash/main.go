// Command incll-crash runs the paper's §5.2 validation: crash the durable
// Masstree at random points under adversarial cache-line survival and
// verify the recovered state equals the last committed epoch, exactly.
//
// Usage:
//
//	incll-crash -seeds 20 -workers 4 -rounds 5
//	incll-crash -shards 4 -seeds 10      # cross-shard recovery, incl. crashes
//	                                     # inside the two-phase checkpoint
//	incll-crash -repl -shards 4 -replicashards 2   # replication campaign:
//	                                     # crash at every snapshot/stream
//	                                     # protocol point, verify the replica
//	                                     # always holds an exact committed
//	                                     # prefix and reconverges
//	incll-crash -reshard -shards 4 -toshards 8     # resharding campaign:
//	                                     # abort the online reshard at every
//	                                     # protocol point, crash, and verify
//	                                     # recovery lands entirely on one
//	                                     # side of the cutover, lossless
package main

import (
	"flag"
	"fmt"
	"log"

	"incll/internal/crashtest"
)

func main() {
	seeds := flag.Int("seeds", 10, "number of independent campaigns")
	workers := flag.Int("workers", 2, "concurrent mutator goroutines")
	shards := flag.Int("shards", 1, "keyspace shards with coordinated checkpoints (1 = single store)")
	rounds := flag.Int("rounds", 0, "crash/recover cycles per campaign (0 = the campaign's default: 4, or with -repl one per snapshot point plus a clean round)")
	keyspace := flag.Uint64("keyspace", 4000, "distinct keys")
	ops := flag.Int("ops", 800, "operations per worker per epoch")
	persist := flag.Float64("persist", 0.5, "probability a dirty line survives each crash (0 = none survives)")
	valueBytes := flag.Int("valuebytes", 0, "store random byte values up to this size (0 = uint64 values); exercises the value heap")
	evict := flag.Int("evict", 0, "store campaign: dirty lines each shard's cache holds before background eviction persists one mid-epoch (0 = no eviction)")
	repl := flag.Bool("repl", false, "run the replication campaign instead: crash the primary at every snapshot/stream protocol point under concurrent load")
	replicaShards := flag.Int("replicashards", 0, "replication campaign: the follower's shard count (0 = same as -shards)")
	reshard := flag.Bool("reshard", false, "run the resharding campaign instead: abort an online reshard at every protocol point under concurrent load, crash, and verify atomic cutover with zero lost or duplicated keys")
	toShards := flag.Int("toshards", 0, "resharding campaign: the target shard count (0 = 2x -shards)")
	flag.Parse()

	if *reshard {
		to := *toShards
		if to == 0 {
			to = *shards * 2
		}
		cfg := crashtest.ReshardConfig{
			From:            *shards,
			To:              to,
			Workers:         *workers,
			PersistFraction: *persist,
		}
		for seed := int64(0); seed < int64(*seeds); seed++ {
			if err := crashtest.RunReshard(cfg, seed); err != nil {
				log.Fatalf("seed %d: reshard invariant violated: %v", seed, err)
			}
			fmt.Printf("seed %d: reshard %d→%d crash matrix verified\n", seed, cfg.From, cfg.To)
		}
		fmt.Println("all campaigns: every crash recovered onto exactly one side of the cutover, lossless")
		return
	}

	if *repl {
		cfg := crashtest.ReplConfig{
			Shards:          *shards,
			FollowerShards:  *replicaShards,
			Workers:         *workers,
			Rounds:          *rounds,
			PersistFraction: *persist,
		}
		for seed := int64(0); seed < int64(*seeds); seed++ {
			n, err := crashtest.RunRepl(cfg, seed)
			if err != nil {
				log.Fatalf("seed %d: replication invariant violated: %v", seed, err)
			}
			fmt.Printf("seed %d: %d replication crash rounds verified\n", seed, n)
		}
		fmt.Println("all campaigns: replica held an exact committed prefix and reconverged")
		return
	}

	cfg := crashtest.Config{
		Workers:         *workers,
		Shards:          *shards,
		Rounds:          *rounds,
		Keyspace:        *keyspace,
		OpsPerEpoch:     *ops,
		PersistFraction: *persist,
		ValueBytes:      *valueBytes,
		DirtyCapacity:   *evict,
	}
	for seed := int64(0); seed < int64(*seeds); seed++ {
		n, err := crashtest.Run(cfg, seed)
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Printf("seed %d: %d crash/recover cycles verified\n", seed, n)
	}
	fmt.Println("all campaigns recovered exactly to their committed epochs")
}
