package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"incll/internal/ycsb"
)

// BenchRecord is one machine-readable measurement, the unit of the
// BENCH_*.json files cmd/incll-bench emits so the performance trajectory
// is tracked PR over PR.
type BenchRecord struct {
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"`
	Dist       string  `json:"dist"`
	Shards     int     `json:"shards"`
	TxnMode    string  `json:"txn_mode"`
	ValueSize  int     `json:"value_size"`
	ValueDist  string  `json:"value_dist,omitempty"`
	ScanLen    int     `json:"scan_len,omitempty"`
	ScanDist   string  `json:"scan_dist,omitempty"`
	ScanAPI    string  `json:"scan_api,omitempty"` // "cursor" on YCSB-E rows (part of the row key)
	Reverse    bool    `json:"reverse,omitempty"`
	Threads    int     `json:"threads"`
	TreeSize   uint64  `json:"tree_size"`
	Ops        int64   `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Txns       int64   `json:"txns"`
	TxnsPerSec float64 `json:"txns_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
	ElapsedMS  float64 `json:"elapsed_ms"`

	// Per-op latency percentiles in microseconds (sampled; YCSB rows).
	P50Micros float64 `json:"p50_us,omitempty"`
	P95Micros float64 `json:"p95_us,omitempty"`
	P99Micros float64 `json:"p99_us,omitempty"`

	// Checkpoint stop-the-world windows over the measured phase, in
	// microseconds (durable modes; one sample per shard per advance).
	STWCount     int64   `json:"stw_count,omitempty"`
	STWP50Micros float64 `json:"stw_p50_us,omitempty"`
	STWP99Micros float64 `json:"stw_p99_us,omitempty"`
	STWMaxMicros float64 `json:"stw_max_us,omitempty"`

	// Observability counters over the measured phase (durable modes): the
	// undo breakdown (Figure 7's metric) and NVM traffic.
	LoggedNodes  int64 `json:"logged_nodes,omitempty"`
	InCLLPerm    int64 `json:"incll_perm,omitempty"`
	InCLLVal     int64 `json:"incll_val,omitempty"`
	Fences       int64 `json:"fences,omitempty"`
	FlushedLines int64 `json:"flushed_lines,omitempty"`
	Advances     int64 `json:"advances,omitempty"`

	// Replication rows (Workload "SNAPSHOT" / "REPLICA" / "REPLNET"):
	// snapshot and restore throughput, and replica lag under write load.
	// REPLNET rows measure the TCP tier: MBPerSec is the follower's
	// bootstrap transfer rate over loopback, the lag fields its
	// steady-state apply debt, HBRTTP99Micros the primary-observed
	// heartbeat round-trip tail, and the commit-to-apply fields the
	// propagation-timeline quantiles (commit on the primary to the
	// follower's durable-apply ack, single clock; DESIGN.md §15).
	SnapshotBytes          int64   `json:"snapshot_bytes,omitempty"`
	RestoreMBPerSec        float64 `json:"restore_mb_per_sec,omitempty"`
	LagEpochsMax           uint64  `json:"lag_epochs_max,omitempty"`
	LagEpochsMean          float64 `json:"lag_epochs_mean,omitempty"`
	HBRTTP99Micros         float64 `json:"hb_rtt_p99_us,omitempty"`
	CommitToApplyP50Micros float64 `json:"commit_to_apply_p50_us,omitempty"`
	CommitToApplyP99Micros float64 `json:"commit_to_apply_p99_us,omitempty"`

	// Reshard rows (Workload "RESHARD"): online split/merge under load.
	// Reshard names the transition ("4to8"); OpsPerSec is the workload's
	// sustained throughput while the reshard ran, BaseOpsPerSec the
	// undisturbed baseline; CopyMBPerSec the bulk-copy rate into the
	// target; CutoverPauseMS the writer-gated cutover window.
	Reshard        string  `json:"reshard,omitempty"`
	BaseOpsPerSec  float64 `json:"base_ops_per_sec,omitempty"`
	CopyMBPerSec   float64 `json:"copy_mb_per_sec,omitempty"`
	CutoverPauseMS float64 `json:"cutover_pause_ms,omitempty"`

	// Phases is the sampled latency attribution over the measured phase
	// (durable rows; see DESIGN.md §12), keyed by phase name.
	Phases map[string]PhaseSummary `json:"phases,omitempty"`
	// PhaseSampleEvery is the attribution sampling period the row used.
	PhaseSampleEvery int `json:"phase_sample_every,omitempty"`

	// Timeline is the per-second progress series of the measured phase.
	Timeline []TimelinePoint `json:"timeline,omitempty"`
}

// PhaseSummary is one phase's latency summary in a bench row.
type PhaseSummary struct {
	Count     int64   `json:"count"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// record converts one run's result.
func record(r Result) BenchRecord {
	shards := r.Config.Shards
	if shards < 1 {
		shards = 1
	}
	rec := BenchRecord{
		Workload:   r.Config.Workload.String(),
		Mode:       r.Config.Mode.String(),
		Dist:       r.Config.Dist.String(),
		Shards:     shards,
		TxnMode:    r.Config.TxnMode.String(),
		ValueSize:  r.Config.ValueSize,
		Threads:    r.Config.Threads,
		TreeSize:   r.Config.TreeSize,
		Ops:        r.Ops,
		OpsPerSec:  r.Throughput,
		Txns:       r.Txns,
		TxnsPerSec: r.TxnThroughput,
		MBPerSec:   r.MBPerSec,
		ElapsedMS:  float64(r.Elapsed.Microseconds()) / 1000,
		P50Micros:  float64(r.P50.Nanoseconds()) / 1000,
		P95Micros:  float64(r.P95.Nanoseconds()) / 1000,
		P99Micros:  float64(r.P99.Nanoseconds()) / 1000,

		STWCount:     r.CheckpointSTW.Count,
		STWP50Micros: float64(r.CheckpointSTW.P50) / 1000,
		STWP99Micros: float64(r.CheckpointSTW.P99) / 1000,
		STWMaxMicros: float64(r.CheckpointSTW.Max) / 1000,

		LoggedNodes:  r.LoggedNodes,
		InCLLPerm:    r.InCLLPerm,
		InCLLVal:     r.InCLLVal,
		Fences:       r.Fences,
		FlushedLines: r.FlushedLines,
		Advances:     r.Advances,
	}
	if r.Config.ValueSize > 0 {
		rec.ValueDist = r.Config.ValueDist.String()
	}
	if r.Config.Workload == ycsb.E {
		rec.ScanLen = r.Config.ScanLen
		rec.ScanDist = r.Config.ScanDist.String()
		rec.ScanAPI = "cursor"
		rec.Reverse = r.Config.ScanReverse
	}
	if len(r.Phases) > 0 {
		rec.PhaseSampleEvery = r.PhaseSampleEvery
		rec.Phases = make(map[string]PhaseSummary, len(r.Phases))
		for name, h := range r.Phases {
			if h.Count == 0 {
				continue // quiet phases stay out of the row
			}
			rec.Phases[name] = PhaseSummary{
				Count:     h.Count,
				P50Micros: float64(h.P50) / 1000,
				P99Micros: float64(h.P99) / 1000,
			}
		}
	}
	rec.Timeline = r.Timeline
	return rec
}

// BenchSuite runs the tracked benchmark matrix — the four YCSB workloads
// on the durable store, a sharded scale-out point, and the two
// transactional modes — and returns the records. Each record also prints
// one line to w as it lands.
func BenchSuite(w io.Writer, p Params) []BenchRecord {
	p.setDefaults()
	base := RunConfig{
		TreeSize:     p.TreeSize,
		Threads:      p.Threads,
		OpsPerThread: p.Ops,
		Seed:         p.Seed,
		Mode:         INCLL,
		Dist:         ycsb.Uniform,
	}
	var cfgs []RunConfig
	for _, wl := range []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.E} {
		c := base
		c.Workload = wl
		cfgs = append(cfgs, c)
	}
	// More YCSB-E rows: the spec-shaped zipfian-length mix forward,
	// reverse, and sharded.
	eZipf := base
	eZipf.Workload = ycsb.E
	eZipf.ScanLen = 50
	eZipf.ScanDist = ycsb.SizeZipfian
	cfgs = append(cfgs, eZipf)

	eRev := eZipf
	eRev.ScanReverse = true
	cfgs = append(cfgs, eRev)

	eSharded := eZipf
	eSharded.Shards = 4
	cfgs = append(cfgs, eSharded)

	sharded := base
	sharded.Workload = ycsb.A
	sharded.Shards = 4
	cfgs = append(cfgs, sharded)

	rmw := base
	rmw.Workload = ycsb.A
	rmw.TxnMode = TxnRMW
	cfgs = append(cfgs, rmw)

	transfer := base
	transfer.Workload = ycsb.A
	transfer.TxnMode = TxnTransfer
	cfgs = append(cfgs, transfer)

	xfer4 := transfer
	xfer4.Shards = 4
	cfgs = append(cfgs, xfer4)

	// Byte-value rows: memcached-style payload sizes on the value heap.
	// Smaller trees keep the value-heap arenas CI-sized.
	bytes128 := base
	bytes128.Workload = ycsb.A
	bytes128.ValueSize = 128
	cfgs = append(cfgs, bytes128)

	bytes1k := base
	bytes1k.Workload = ycsb.A
	bytes1k.TreeSize = p.TreeSize / 4
	bytes1k.ValueSize = 1024
	bytes1k.ValueDist = ycsb.SizeZipfian
	cfgs = append(cfgs, bytes1k)

	bytes1k4 := base
	bytes1k4.Workload = ycsb.A
	bytes1k4.TreeSize = p.TreeSize / 4
	bytes1k4.ValueSize = 1024
	bytes1k4.Shards = 4
	cfgs = append(cfgs, bytes1k4)

	recs := make([]BenchRecord, 0, len(cfgs)+4)
	for _, c := range cfgs {
		// Earlier rows leave the heap full of dead arenas and tree nodes;
		// on a small runner the collector's catch-up work then lands inside
		// the next row's measured window. Collect between rows so each row
		// starts from the same heap state.
		runtime.GC()
		r := Run(c)
		rec := record(r)
		recs = append(recs, rec)
		fmt.Fprintf(w, "%-8s %-6s shards=%d txn=%-8s vs=%-4d %10.0f ops/s", rec.Workload, rec.Mode, rec.Shards, rec.TxnMode, rec.ValueSize, rec.OpsPerSec)
		fmt.Fprintf(w, "  p50/p95/p99=%.1f/%.1f/%.1fus", rec.P50Micros, rec.P95Micros, rec.P99Micros)
		if rec.STWCount > 0 {
			fmt.Fprintf(w, "  stw p50/max=%.0f/%.0fus", rec.STWP50Micros, rec.STWMaxMicros)
		}
		if rec.ScanAPI != "" {
			dir := "fwd"
			if rec.Reverse {
				dir = "rev"
			}
			fmt.Fprintf(w, "  scan=%s/%d/%s/%s", rec.ScanAPI, rec.ScanLen, rec.ScanDist, dir)
		}
		if rec.Txns > 0 {
			fmt.Fprintf(w, " %10.0f txn/s", rec.TxnsPerSec)
		}
		if rec.ValueSize > 0 {
			fmt.Fprintf(w, " %8.1f MB/s", rec.MBPerSec)
		}
		if c.TxnMode == TxnTransfer && !r.SumConserved {
			fmt.Fprintf(w, "  INVARIANT VIOLATED")
		}
		fmt.Fprintln(w)
	}
	recs = append(recs, replRows(w, p)...)
	recs = append(recs, replnetRows(w, p)...)
	recs = append(recs, reshardRows(w, p)...)
	return recs
}

// replRows runs the replication matrix: snapshot/restore throughput at 1
// and 4 shards (128-byte values, a quarter of the tree so arenas stay
// CI-sized) and a replica-lag run under write load.
func replRows(w io.Writer, p Params) []BenchRecord {
	rp := p
	rp.TreeSize = p.TreeSize / 4
	var recs []BenchRecord
	for _, shards := range []int{1, 4} {
		r := RunSnapshotBench(rp, shards, 128)
		rec := BenchRecord{
			Workload:        "SNAPSHOT",
			Mode:            "INCLL",
			Dist:            "uniform",
			Shards:          shards,
			TxnMode:         "none",
			ValueSize:       128,
			Threads:         1,
			TreeSize:        rp.TreeSize,
			MBPerSec:        r.SnapshotMBPerSec,
			SnapshotBytes:   r.SnapshotBytes,
			RestoreMBPerSec: r.RestoreMBPerSec,
		}
		recs = append(recs, rec)
		fmt.Fprintf(w, "%-8s INCLL  shards=%d %38.1f MB/s  restore %.1f MB/s  (%d bytes)\n",
			rec.Workload, shards, rec.MBPerSec, rec.RestoreMBPerSec, rec.SnapshotBytes)
	}
	for _, shards := range []int{1, 4} {
		r := RunReplicaLagBench(rp, shards)
		rec := BenchRecord{
			Workload:      "REPLICA",
			Mode:          "INCLL",
			Dist:          "uniform",
			Shards:        shards,
			TxnMode:       "none",
			Threads:       1,
			TreeSize:      rp.TreeSize,
			Ops:           int64(p.Ops),
			MBPerSec:      r.ApplyMBPerSec,
			LagEpochsMax:  r.LagEpochsMax,
			LagEpochsMean: r.LagEpochsMean,
		}
		recs = append(recs, rec)
		conv := ""
		if !r.Converged {
			conv = "  DIVERGED"
		}
		fmt.Fprintf(w, "%-8s INCLL  shards=%d %38.1f MB/s applied  lag max/mean %d/%.2f epochs%s\n",
			rec.Workload, shards, rec.MBPerSec, rec.LagEpochsMax, rec.LagEpochsMean, conv)
	}
	return recs
}

// replnetRows runs the networked replication matrix: a loopback-TCP
// follower bootstrap plus a steady-state lag run at 1 and 4 shards.
func replnetRows(w io.Writer, p Params) []BenchRecord {
	rp := p
	rp.TreeSize = p.TreeSize / 4
	var recs []BenchRecord
	for _, shards := range []int{1, 4} {
		r := RunReplnetBench(rp, shards)
		rec := BenchRecord{
			Workload:               "REPLNET",
			Mode:                   "INCLL",
			Dist:                   "uniform",
			Shards:                 shards,
			TxnMode:                "none",
			Threads:                1,
			TreeSize:               rp.TreeSize,
			Ops:                    int64(p.Ops),
			MBPerSec:               r.BootstrapMBPerSec,
			SnapshotBytes:          r.BootstrapBytes,
			LagEpochsMax:           r.LagEpochsMax,
			LagEpochsMean:          r.LagEpochsMean,
			HBRTTP99Micros:         float64(r.HeartbeatRTTP99.Nanoseconds()) / 1000,
			CommitToApplyP50Micros: float64(r.CommitToApplyP50.Nanoseconds()) / 1000,
			CommitToApplyP99Micros: float64(r.CommitToApplyP99.Nanoseconds()) / 1000,
		}
		recs = append(recs, rec)
		conv := ""
		if !r.Converged {
			conv = "  DIVERGED"
		}
		fmt.Fprintf(w, "%-8s INCLL  shards=%d %38.1f MB/s bootstrap  lag max/mean %d/%.2f epochs  hb rtt p99 %.0fus  c2a p50/p99 %.0f/%.0fus%s\n",
			rec.Workload, shards, rec.MBPerSec, rec.LagEpochsMax, rec.LagEpochsMean, rec.HBRTTP99Micros,
			rec.CommitToApplyP50Micros, rec.CommitToApplyP99Micros, conv)
	}
	return recs
}

// RunMeta records the environment one benchmark run measured under, so a
// BENCH_*.json row is never compared against a row from different
// hardware or toolchain without noticing.
type RunMeta struct {
	// GitCommit is the HEAD commit hash, when the run happens inside a
	// git checkout ("" otherwise — metadata collection never fails a run).
	GitCommit string `json:"git_commit,omitempty"`
	// GoVersion is runtime.Version().
	GoVersion string `json:"go_version"`
	// GOOS/GOARCH identify the platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// NumCPU is the machine's logical CPU count; GOMAXPROCS is the
	// scheduler parallelism the run actually used.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Timestamp is the collection time, UTC RFC 3339.
	Timestamp string `json:"timestamp"`
}

// CollectRunMeta gathers the run metadata, best-effort.
func CollectRunMeta() RunMeta {
	m := RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	return m
}

// BenchFile is the envelope a BENCH_*.json file holds: the run metadata
// once, then every record. (Files before PR 6 are bare record arrays.)
type BenchFile struct {
	Meta    RunMeta       `json:"meta"`
	Records []BenchRecord `json:"records"`
}

// WriteBenchJSON marshals the records, indented, to w, wrapped in the
// metadata envelope.
func WriteBenchJSON(w io.Writer, recs []BenchRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BenchFile{Meta: CollectRunMeta(), Records: recs})
}
