package main

import "fmt"

type workloadKind uint8

const (
	kindA workloadKind = iota
	kindC
	kindE
	kindChurn
	kindTxn
)

// workload fixes one traffic mix and everything it is sized with. Every
// store a workload opens uses these explicit sizes, never the defaults, so
// a change of default cannot silently move a run into exhaustion — and the
// headroom is asserted (see checkHeadroom).
type workload struct {
	name string
	why  string
	kind workloadKind

	// ungated workloads run like the others but are not listed in
	// BENCHMARK.json: no later change is rejected on their numbers.
	ungated bool

	keys       uint64 // preloaded keys (accounts for txn_transfer)
	valueBytes int    // 0: uint64 values below 2^40, stored inline
	shards     int

	countOps    uint64 // ops in the deterministic count pass
	ckptEvery   uint64 // count pass: driver checkpoint period, in ops
	crashCycles int
	crashWrites uint64 // un-checkpointed writes before each simulated crash

	arenaWords, heapWords, logSegWords, txnSegWords uint64 // per shard
}

const (
	workers        = 2 // closed loop, 2 client goroutines; every store is opened with 2 workers
	initialBalance = 1_000_000
	preloadVersion = 1 << 40 // churn_bytes: value version of a preloaded key (never a generator seq)
)

var workloads = []*workload{
	{
		name: "ycsb_a", kind: kindA,
		why:  "50/50 get/update, uniform, 1M keys, inline values: InCLLval, extlog, fences and the checkpoint flush work; alloc idles",
		keys: 1_000_000, shards: 1,
		countOps: 500_000, ckptEvery: 50_000, crashCycles: 9, crashWrites: 20_000,
		arenaWords: 1 << 24, heapWords: 3 << 22, logSegWords: 1 << 20, txnSegWords: 1 << 14,
	},
	{
		name: "ycsb_c", kind: kindC, ungated: true,
		why:  "100% get, zipfian, 100k keys (cache-resident): the control - nothing is dirtied, so persistence work predicts no change; read-path CPU tax shows first",
		keys: 100_000, shards: 1,
		countOps: 500_000, ckptEvery: 50_000, crashCycles: 9, crashWrites: 20_000,
		arenaWords: 1 << 23, heapWords: 1 << 21, logSegWords: 1 << 20, txnSegWords: 1 << 14,
	},
	{
		name: "ycsb_e", kind: kindE,
		why:  "95% cursor scans (zipfian length 1..50) / 5% inserts above 500k keys: iterator, splits racing scans, InCLLperm - guards scan cost",
		keys: 500_000, shards: 1,
		countOps: 250_000, ckptEvery: 12_500, crashCycles: 9, crashWrites: 20_000,
		arenaWords: 1 << 24, heapWords: 3 << 22, logSegWords: 1 << 20, txnSegWords: 1 << 14,
	},
	{
		name: "churn_bytes", kind: kindChurn,
		why:  "25% each insert/delete/overwrite/get of 256-byte values over 200k live keys: alloc, value heap, EBR limbo, splits and big checkpoints",
		keys: 200_000, valueBytes: 256, shards: 1,
		countOps: 500_000, ckptEvery: 25_000, crashCycles: 9, crashWrites: 20_000,
		arenaWords: 1 << 25, heapWords: 3 << 23, logSegWords: 1 << 21, txnSegWords: 1 << 14,
	},
	{
		name: "txn_transfer", kind: kindTxn,
		why:  "4-account transfers via BeginWorker/Commit over 100k accounts on 4 shards: txn commit guard, intent log, routing, two-phase checkpoint",
		keys: 100_000, shards: 4,
		countOps: 100_000, ckptEvery: 5_000, crashCycles: 9, crashWrites: 4_000,
		arenaWords: 1 << 22, heapWords: 1 << 21, logSegWords: 1 << 18, txnSegWords: 1 << 18,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks key and op counts by div (the tests run at 1/50); region
// sizes stay, so headroom only grows.
func (w *workload) scaled(div uint64) *workload {
	s := *w
	s.keys /= div
	s.countOps /= div
	s.ckptEvery /= div
	s.crashWrites /= div
	s.crashCycles = 2
	return &s
}

// loggingSized is w with the external log the LOGGING ablation needs: with
// InCLL off every first touch of a node is logged, four times what the
// shipped sizes are asserted for.
func (w *workload) loggingSized() *workload {
	s := *w
	s.arenaWords += 3 * workers * w.logSegWords
	s.logSegWords *= 4
	return &s
}

// keyspace is the range reads and churn draw indexes from.
func (w *workload) keyspace() uint64 {
	if w.kind == kindChurn {
		return 2 * w.keys // half present at any time
	}
	return w.keys
}

// preloaded reports whether setup stores key idx. The churn rule keeps
// exactly half of every client's keys present for 1 and for 2 clients.
func (w *workload) preloaded(idx uint64) bool {
	if w.kind == kindChurn {
		return idx < 2*w.keys && idx%4 < 2
	}
	return idx < w.keys
}

// preloadValue is what setup stores under idx: a value, a value version
// (churn_bytes) or a balance (txn_transfer).
func (w *workload) preloadValue(idx uint64) uint64 {
	switch w.kind {
	case kindChurn:
		return preloadVersion
	case kindTxn:
		return initialBalance
	}
	return value(idx, 0)
}

// counterKey is the per-client key a transfer writes its ordinal to.
func (w *workload) counterKey(client int) uint64 { return w.keys + uint64(client) }
