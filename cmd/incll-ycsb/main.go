// Command incll-ycsb runs one YCSB workload against one of the four
// systems (MT, MT+, INCLL, LOGGING) and prints the measurement: the
// single-run building block incll-bench composes into figures.
//
// Usage:
//
//	incll-ycsb -mode INCLL -workload A -dist zipfian -size 1000000
//	incll-ycsb -mode INCLL -workload A -shards 4 -threads 8   # sharded scale-out
//	incll-ycsb -mode INCLL -workload A -txn transfer          # k-key bank transfers
//	incll-ycsb -workload A -valuesize 1024                    # 1 KiB byte values, MB/s
//	incll-ycsb -workload A -valuesize 1024 -shards 4          # same, sharded
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"incll/internal/harness"
	"incll/internal/ycsb"
)

func main() {
	mode := flag.String("mode", "INCLL", "MT | MT+ | INCLL | LOGGING")
	workload := flag.String("workload", "A", "A | B | C | E")
	dist := flag.String("dist", "uniform", "uniform | zipfian")
	size := flag.Uint64("size", 200_000, "tree size (keys)")
	threads := flag.Int("threads", 4, "worker threads")
	shards := flag.Int("shards", 1, "keyspace shards with coordinated checkpoints (durable modes)")
	ops := flag.Int("ops", 200_000, "operations per thread")
	txnMode := flag.String("txn", "none", "none | rmw | transfer (durable modes): run multi-key transactions over the mix")
	txnKeys := flag.Int("txnkeys", 4, "accounts touched per bank transfer")
	valueSize := flag.Int("valuesize", 0, "byte-value payload size (durable modes): > 0 switches to PutBytes/GetBytes values and reports MB/s")
	valueDist := flag.String("valuedist", "constant", "constant | zipfian payload-size distribution (with -valuesize)")
	scanLen := flag.Int("scanlen", ycsb.ScanLength, "YCSB-E scan length (the max when -scandist zipfian)")
	scanDist := flag.String("scandist", "constant", "constant | zipfian scan-length distribution (workload E)")
	reverse := flag.Bool("reverse", false, "run YCSB-E scans descending through the cursor (durable modes)")
	interval := flag.Duration("interval", 64*time.Millisecond, "epoch interval")
	fence := flag.Duration("fence", 0, "emulated NVM latency after each fence")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	cfg := harness.RunConfig{
		TreeSize:      *size,
		Threads:       *threads,
		Shards:        *shards,
		OpsPerThread:  *ops,
		TxnKeys:       *txnKeys,
		ValueSize:     *valueSize,
		ScanLen:       *scanLen,
		ScanReverse:   *reverse,
		EpochInterval: *interval,
		FenceDelay:    *fence,
		Seed:          *seed,
	}
	switch *valueDist {
	case "constant":
		cfg.ValueDist = ycsb.SizeConstant
	case "zipfian":
		cfg.ValueDist = ycsb.SizeZipfian
	default:
		log.Fatalf("unknown value-size distribution %q", *valueDist)
	}
	switch *scanDist {
	case "constant":
		cfg.ScanDist = ycsb.SizeConstant
	case "zipfian":
		cfg.ScanDist = ycsb.SizeZipfian
	default:
		log.Fatalf("unknown scan-length distribution %q", *scanDist)
	}
	switch *txnMode {
	case "none":
	case "rmw":
		cfg.TxnMode = harness.TxnRMW
	case "transfer":
		cfg.TxnMode = harness.TxnTransfer
	default:
		log.Fatalf("unknown txn mode %q", *txnMode)
	}
	switch *mode {
	case "MT":
		cfg.Mode = harness.MT
	case "MT+":
		cfg.Mode = harness.MTPlus
	case "INCLL":
		cfg.Mode = harness.INCLL
	case "LOGGING":
		cfg.Mode = harness.LOGGING
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	switch *workload {
	case "A":
		cfg.Workload = ycsb.A
	case "B":
		cfg.Workload = ycsb.B
	case "C":
		cfg.Workload = ycsb.C
	case "E":
		cfg.Workload = ycsb.E
	default:
		log.Fatalf("unknown workload %q", *workload)
	}
	switch *dist {
	case "uniform":
		cfg.Dist = ycsb.Uniform
	case "zipfian":
		cfg.Dist = ycsb.Zipfian
	default:
		log.Fatalf("unknown distribution %q", *dist)
	}

	if *shards > 1 && (cfg.Mode == harness.MT || cfg.Mode == harness.MTPlus) {
		log.Fatalf("-shards applies to the durable modes (INCLL, LOGGING), not %s", cfg.Mode)
	}
	if cfg.TxnMode != harness.TxnNone && cfg.Mode != harness.INCLL && cfg.Mode != harness.LOGGING {
		log.Fatalf("-txn applies to the durable modes (INCLL, LOGGING), not %s", cfg.Mode)
	}
	if cfg.ValueSize > 0 {
		if cfg.Mode != harness.INCLL && cfg.Mode != harness.LOGGING {
			log.Fatalf("-valuesize applies to the durable modes (INCLL, LOGGING), not %s", cfg.Mode)
		}
		if cfg.TxnMode != harness.TxnNone {
			log.Fatalf("-valuesize and -txn are mutually exclusive (transfers are uint64 accounts)")
		}
	}

	r := harness.Run(cfg)
	label := ""
	if *shards > 1 {
		label = fmt.Sprintf(" shards=%d", *shards)
	}
	if cfg.TxnMode != harness.TxnNone {
		label += fmt.Sprintf(" txn=%s", cfg.TxnMode)
	}
	if cfg.ValueSize > 0 {
		label += fmt.Sprintf(" valuesize=%d/%s", cfg.ValueSize, cfg.ValueDist)
	}
	if cfg.Workload == ycsb.E {
		dir := "fwd"
		if cfg.ScanReverse {
			dir = "rev"
		}
		label += fmt.Sprintf(" scan=%d/%s/%s", cfg.ScanLen, cfg.ScanDist, dir)
	}
	fmt.Printf("%s %s %s%s: %d ops in %v = %.3f Mops/s\n",
		cfg.Mode, cfg.Workload, cfg.Dist, label, r.Ops, r.Elapsed.Round(time.Millisecond), r.Throughput/1e6)
	fmt.Printf("  latency p50=%v p95=%v p99=%v (sampled 1/8)\n", r.P50, r.P95, r.P99)
	if cfg.Mode == harness.INCLL || cfg.Mode == harness.LOGGING {
		fmt.Printf("  epochs=%d loggedNodes=%d inCLLperm=%d inCLLval=%d fences=%d linesFlushed=%d\n",
			r.Advances, r.LoggedNodes, r.InCLLPerm, r.InCLLVal, r.Fences, r.FlushedLines)
		if stw := r.CheckpointSTW; stw.Count > 0 {
			fmt.Printf("  checkpoint stw n=%d p50=%v p99=%v max=%v\n", stw.Count,
				time.Duration(stw.P50), time.Duration(stw.P99), time.Duration(stw.Max))
		}
	}
	if cfg.ValueSize > 0 {
		fmt.Printf("  valueBytes=%d = %.1f MB/s\n", r.ValueBytes, r.MBPerSec)
	}
	if cfg.TxnMode != harness.TxnNone {
		fmt.Printf("  committed=%d conflicts=%d = %.3f Ktxn/s\n", r.Txns, r.TxnConflicts, r.TxnThroughput/1e3)
		if cfg.TxnMode == harness.TxnTransfer {
			fmt.Printf("  transfer invariant conserved: %v\n", r.SumConserved)
		}
	}
	for i, ops := range r.PerShardOps {
		fmt.Printf("  shard %d: %d ops (%.1f%%) = %.3f Mops/s\n",
			i, ops, 100*float64(ops)/float64(r.Ops), float64(ops)/r.Elapsed.Seconds()/1e6)
	}
}
