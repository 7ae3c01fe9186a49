package main

// The metric catalogue. BENCHMARK.json at the repository root repeats the
// names, units, directions and bounds; TestContractMatchesCatalogue keeps
// the two equal.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the library sees. A bound is the share of the
// parent's median by which the metric may worsen. The timed metrics are
// bounded at the contract's maximum, 25 %: the 2-core sandbox shares its
// host, and for half a minute at a time the same binary on the same seed
// runs 15–25 % slower (README.md has the measured spreads and what was
// tried), longer than a run, so repetition inside a run cannot remove it.
// The counts repeat exactly for a seed and move by one or two percent
// between seeds. op_p50_us, op_p99_us and recovery_ms could not hold a bound the
// contract allows on every workload and are per-layer metrics instead
// (ISSUE.md's own rule: demote, do not widen).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_ops_s", "ops/s", higher, 0.25},
	{"checkpoint_p50_ms", "ms", lower, 0.25},
	{"fences_per_op", "count/op", lower, 0.08},
	{"nvm_lines_per_op", "lines/op", lower, 0.02},
	{"mem_mb", "MiB", lower, 0.05},
}

// perLayer metrics carry no bound. A metric a workload cannot produce (a
// rung that cannot serve it, a layer it bypasses) is reported as 0; the
// README lists which.
var perLayer = []metricDef{
	{"gen.ns_op", "ns/op", lower, 0},

	{"masstree.ns_op", "ns/op", lower, 0},
	{"masstree.ops_s_p2", "ops/s", higher, 0},
	{"masstree.incll_overhead_pct", "%", lower, 0},

	{"nvm.load_ns", "ns", lower, 0},
	{"nvm.store_clean_ns", "ns", lower, 0},
	{"nvm.store_dirty_ns", "ns", lower, 0},
	{"nvm.wbfence_ns", "ns", lower, 0},
	{"nvm.wbfence_ns_p2", "ns", lower, 0},
	{"nvm.flushall_ns_line", "ns/line", lower, 0},
	{"nvm.crash_ns_line", "ns/line", lower, 0},
	{"nvm.fences_per_op", "count/op", lower, 0},
	{"nvm.writebacks_per_op", "count/op", lower, 0},
	{"nvm.lines_per_op", "lines/op", lower, 0},

	{"alloc.pair_ns", "ns", lower, 0},
	{"alloc.pair_ns_p2", "ns", lower, 0},
	{"alloc.heap_bytes_per_key", "B/key", lower, 0},
	{"alloc.heap_used_frac", "ratio", lower, 0},
	{"alloc.heap_delta_words", "words", lower, 0},
	{"alloc.limbo_max", "count", lower, 0},

	{"epoch.ckpt_p90_ms", "ms", lower, 0},
	{"epoch.ckpt_max_ms", "ms", lower, 0},
	{"epoch.ckpt_busy_frac", "ratio", lower, 0},
	{"epoch.lines_per_ckpt", "lines", lower, 0},
	{"epoch.ns_per_line", "ns/line", lower, 0},

	{"extlog.logobject_ns", "ns", lower, 0},
	{"extlog.entries_per_op", "count/op", lower, 0},
	{"extlog.words_per_op", "words/op", lower, 0},
	{"extlog.replayed_per_crash", "count", lower, 0},
	{"extlog.recover_ns_entry", "ns", lower, 0},

	{"core.ns_op", "ns/op", lower, 0},
	{"core.self_ns_op", "ns/op", lower, 0},
	{"core.logging_ns_op", "ns/op", lower, 0},
	{"core.get_ns", "ns", lower, 0},
	{"core.put_ns", "ns", lower, 0},
	{"core.scan_ns_key", "ns/key", lower, 0},
	{"core.logged_per_op", "count/op", lower, 0},
	{"core.logged_per_op_logging", "count/op", lower, 0},
	{"core.incll_val_per_op", "count/op", higher, 0},
	{"core.incll_perm_per_op", "count/op", higher, 0},
	{"core.incll_ratio", "ratio", higher, 0},
	{"core.value_heap_bytes_per_op", "B/op", lower, 0},
	{"core.lazy_recoveries", "count", lower, 0},

	{"txn.ns_op", "ns/op", lower, 0},
	{"txn.commit_ns", "ns", lower, 0},
	{"txn.self_ns_op", "ns/op", lower, 0},
	{"txn.fences_per_commit", "count", lower, 0},
	{"txn.commits_per_attempt", "ratio", higher, 0},

	{"shard.ns_op", "ns/op", lower, 0},
	{"shard.route_ns", "ns", lower, 0},
	{"shard.self_ns_op", "ns/op", lower, 0},
	{"shard.n4_over_n1", "ratio", lower, 0},
	{"shard.imbalance", "ratio", lower, 0},
	{"shard.ckpt_p50_ms_n4", "ms", lower, 0},

	{"incll.ns_op", "ns/op", lower, 0},
	{"incll.self_ns_op", "ns/op", lower, 0},
	{"incll.obs_off_ns_op", "ns/op", lower, 0},
	{"incll.op_p50_us", "us", lower, 0},
	{"incll.op_p99_us", "us", lower, 0},
	{"incll.recovery_ms", "ms", lower, 0},
	{"incll.get_p50_us", "us", lower, 0},
	{"incll.get_p99_us", "us", lower, 0},
	{"incll.put_p50_us", "us", lower, 0},
	{"incll.put_p99_us", "us", lower, 0},
	{"incll.scan_p50_us", "us", lower, 0},
	{"incll.txn_p50_us", "us", lower, 0},
	{"incll.txn_p99_us", "us", lower, 0},
	{"incll.p2_scaling_eff", "ratio", higher, 0},

	{"obs.overhead_pct", "%", lower, 0},

	{"trace.overhead_pct", "%", lower, 0},
	{"trace.spans", "count", lower, 0},
	{"clock.now_ns", "ns", lower, 0},
}
