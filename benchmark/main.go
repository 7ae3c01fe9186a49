// Command benchmark is the repository's benchmark (see README.md and
// BENCHMARK.json at the repository root). One run measures one workload:
//
//	benchmark --workload ycsb_a --seed 1 --seconds 10 --trace 0   # end-to-end metrics
//	benchmark --workload ycsb_a --seed 1 --seconds 10 --trace 1   # per-layer metrics + trace file
//
// It prints every metric by name with its unit, verifies every reply it can
// against an exact model, and prints as its last line one JSON object with
// the keys correct, attempted, failed and metrics. It exits non-zero on any
// verification failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one workload's measured values plus what explains them.
type run struct {
	workload          string
	values            map[string]float64
	notes             []string // sample counts, flags: printed, not part of the JSON line
	attempted, failed uint64
	firstFailure      string
}

func (r *run) set(name string, v float64) { r.values[name] = v }
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
func (r *run) tally(attempted, failed uint64, first string) {
	r.attempted += attempted
	r.failed += failed
	if r.firstFailure == "" {
		r.firstFailure = first
	}
}

// result shapes the run for the contract: every metric of defs, each with
// its unit.
func (r *run) result(defs []metricDef) (result, error) {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, nil
}

func (r *run) print(defs []metricDef) {
	fmt.Printf("== %s\n", r.workload)
	for _, d := range defs {
		fmt.Printf("%-32s %18.6f %s\n", d.Name, r.values[d.Name], d.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("   # %s\n", n)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-32s %18.9f ratio (%d failed of %d attempted)\n", "failed_frac", failedFrac, r.failed, r.attempted)
	if r.firstFailure != "" {
		fmt.Printf("   # first failure: %s\n", r.firstFailure)
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "length of the timed pass")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
		traceTo = flag.String("tracedir", ".bench_build/trace", "directory the traced run writes <workload>.json to")
		out     = flag.String("out", "", "also write every run's result as JSON to this file")
		aa      = flag.Bool("aa", false, "run the end-to-end set twice with the same seed and compare against the bounds")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace, *traceTo, *out, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed uint64, seconds, trace int, traceDir, out string, aa bool) error {
	if seconds < 1 || trace < 0 || trace > 1 || flag.NArg() != 0 {
		return fmt.Errorf("usage: --workload <name|all> --seed <n> --seconds <n≥1> --trace <0|1>")
	}
	ws := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d trace=%d clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed, seconds, trace, workers)
	if aa {
		return runAA(ws, seed, seconds)
	}

	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	results := map[string]result{}
	for _, w := range ws {
		var r *run
		var err error
		if trace == 1 {
			r, err = runTraced(w, seed, time.Duration(seconds)*time.Second, traceDir)
		} else {
			r, err = runEndToEnd(w, seed, time.Duration(seconds)*time.Second)
		}
		if err != nil {
			return err
		}
		res, err := r.result(defs)
		if err != nil {
			return err
		}
		r.print(defs)
		results[w.name] = res
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if out != "" {
		b, err := json.MarshalIndent(map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"commit": commit(), "seed": seed, "seconds": seconds, "trace": trace, "claim": nil, "results": results,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	return failedExit(results)
}

// failedExit is the non-zero exit a verification failure must end in.
func failedExit(results map[string]result) error {
	for name, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: verification failed: %d of %d operations", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// runAA measures the end-to-end set twice with one seed, each run in a
// process of its own as the driver's runs are, and checks that the two
// agree within every metric's own bound.
func runAA(ws []*workload, seed uint64, seconds int) error {
	bad := 0
	for _, w := range ws {
		var rs [2]result
		for i := range rs {
			r, err := runInChild(w.name, seed, seconds)
			if err != nil {
				return err
			}
			rs[i] = r
		}
		fmt.Printf("== %s (A/A, seed %d)\n%-22s %16s %16s %9s %7s\n", w.name, seed, "metric", "run 1", "run 2", "diff", "bound")
		for _, d := range endToEnd {
			a, b := rs[0].Metrics[d.Name].Value, rs[1].Metrics[d.Name].Value
			diff := (b - a) / a
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-22s %16.6f %16.6f %+8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric pairs outside their bound", bad)
	}
	return nil
}

// runInChild runs one end-to-end measurement as a child process and parses
// the result line; a child that fails verification exits non-zero.
func runInChild(name string, seed uint64, seconds int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: child run: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s: child run's result line: %w", name, err)
	}
	return res, nil
}

// ---- the end-to-end run (tracing off) ----

const (
	setups   = 5 // set-ups per run; setup_s is their median
	reps     = 5 // repetitions of the timed pass; each metric is the median repetition's
	warmTime = time.Second
)

func runEndToEnd(w *workload, seed uint64, seconds time.Duration) (*run, error) {
	r := &run{workload: w.name, values: map[string]float64{}}
	z := newZipfs(w)
	open := func() target { return openDB(w, 0) }
	var setupTimes []float64

	// Set-up 1 carries the count pass and the crash cycles.
	tg, d := setup(w, open)
	setupTimes = append(setupTimes, d.Seconds())
	cr, err := countPass(w, tg, seed, z, nil, true, true)
	if err != nil {
		return nil, err
	}
	r.tally(cr.attempted, cr.failed, cr.firstFailure)
	r.set("fences_per_op", float64(cr.delta.nvm.Fences)/float64(cr.ops))
	r.set("nvm_lines_per_op", float64(cr.delta.nvm.LinesPersisted)/float64(cr.ops))
	r.note("count pass: %d ops at %.0f ns/op (1 client), %d checkpoints, %d fences, %d lines persisted; %d crash cycles",
		cr.ops, nsPerOp(cr), cr.ckpts, cr.delta.nvm.Fences, cr.delta.nvm.LinesPersisted, len(cr.recoveries))

	r.note("recoveries, ms: %.3f; log entries replayed: %v", durationsMs(cr.recoveries), cr.replayed)

	// The set-ups in between exist only to be timed. The previous store is
	// dropped first, so set-up can hand its memory back.
	for i := 1; i < setups; i++ {
		tg = nil
		tg, d = setup(w, open)
		setupTimes = append(setupTimes, d.Seconds())
	}
	r.set("setup_s", median(setupTimes))

	tr, err := timedPass(w, tg, seed, z, timedPlan{warm: warmTime, repLen: seconds / reps, reps: reps})
	if err != nil {
		return nil, err
	}
	r.tally(tr.attempted, tr.failed, tr.firstFailure)
	tput, p50, p99, err := timedSummary(r, &tr)
	if err != nil {
		return nil, err
	}
	r.set("throughput_ops_s", tput)
	r.note("op latency p50 %.3f us, p99 %.3f us (per-layer metrics incll.op_p50_us, incll.op_p99_us)", p50, p99)
	r.set("checkpoint_p50_ms", median(durationsMs(tr.ckpts)))
	r.set("mem_mb", tr.memMB)
	r.note("timed pass: %d reps x %v, %d checkpoints timed", reps, seconds/reps, len(tr.ckpts))
	return r, nil
}

// timedSummary is the median repetition's throughput and sampled latency
// percentiles (µs); it refuses a percentile the samples do not support.
func timedSummary(r *run, tr *timedResult) (tput, p50, p99 float64, err error) {
	var tputs, p50s, p99s []float64
	var samples uint64
	for i := range tr.reps {
		rep := &tr.reps[i]
		all := folded(&rep.hists, allKinds...)
		a, _, ok1 := all.quantile(0.50)
		b, _, ok2 := all.quantile(0.99)
		if !ok1 || !ok2 {
			return 0, 0, 0, fmt.Errorf("%s: repetition %d has %d latency samples, too few for p99", r.workload, i, all.n)
		}
		samples += all.n
		tputs = append(tputs, rep.throughput())
		p50s = append(p50s, a/1e3)
		p99s = append(p99s, b/1e3)
	}
	r.note("latency: %d samples over %d reps (1 op in %d timed)", samples, len(tr.reps), sampleEvery)
	return median(tputs), median(p50s), median(p99s), nil
}

// ---- the traced run: count pass, ladder, timed pass with per-kind
// latencies, primitive timings ----

type rung struct {
	name   string
	layer  string
	serves func(w *workload) bool
	open   func(w *workload) target
	sized  func(w *workload) *workload // nil: the workload's own sizes
}

var (
	always  = func(*workload) bool { return true }
	onlyTxn = func(w *workload) bool { return w.kind == kindTxn }
)

// ladder lists the rungs from the outside in. A layer's self time is its
// rung minus the rung it is built on.
var ladder = []rung{
	{name: "gen", layer: "gen", serves: always, open: func(*workload) target { return nullTarget{} }},
	{name: "masstree", layer: "masstree", serves: func(w *workload) bool { return w.valueBytes == 0 }, open: func(*workload) target { return openMasstree() }},
	{name: "core", layer: "core", serves: always, open: func(w *workload) target { return openCore(w, false, false) }},
	{name: "core_logging", layer: "core", serves: always, sized: (*workload).loggingSized,
		open: func(w *workload) target { return openCore(w, true, false) }},
	{name: "core_txn", layer: "txn", serves: onlyTxn, open: func(w *workload) target { return openCore(w, false, true) }},
	{name: "shard", layer: "shard", serves: always, open: func(w *workload) target { return openShard(w, w.shards, w.kind == kindTxn) }},
	{name: "incll", layer: "incll", serves: always, open: func(w *workload) target { return openDB(w, 0) }},
	{name: "incll_obs_off", layer: "incll", serves: always, open: func(w *workload) target { return openDB(w, -1) }},
}

func nsPerOp(c countResult) float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.wall) / float64(c.ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runTraced(w *workload, seed uint64, seconds time.Duration, traceDir string) (*run, error) {
	r := &run{workload: w.name, values: map[string]float64{}}
	for _, d := range perLayer {
		r.values[d.Name] = 0 // what a workload cannot produce stays 0
	}
	z := newZipfs(w)
	tr := newTracer()
	root := tr.begin("workload", "benchmark")

	// Untraced count pass through the façade: the counts, and the base the
	// tracing overhead is measured against.
	sid := tr.begin("setup", "incll")
	tg, _ := setup(w, func() target { return openDB(w, 0) })
	tr.end(sid)
	base, err := countPass(w, tg, seed, z, nil, true, false)
	if err != nil {
		return nil, err
	}
	r.tally(base.attempted, base.failed, base.firstFailure)
	r.set("shard.imbalance", tg.(*dbTarget).shardImbalance())

	// The ladder: the same op stream through every rung, a span per call.
	rungs := map[string]countResult{}
	for _, rg := range ladder {
		if !rg.serves(w) {
			continue
		}
		tg = nil
		rw := w
		if rg.sized != nil {
			rw = rg.sized(w)
		}
		sid := tr.begin("setup", rg.layer)
		tg, _ = setup(rw, func() target { return rg.open(rw) })
		tr.end(sid)
		rid := tr.begin(rg.name, rg.layer)
		c, err := countPass(rw, tg, seed, z, tr, rg.name != "gen", rg.name == "incll")
		tr.end(rid)
		if err != nil {
			return nil, err
		}
		r.tally(c.attempted, c.failed, c.firstFailure)
		rungs[rg.name] = c
	}
	tr.end(root)
	ladderMetrics(r, w, base, rungs)
	r.set("trace.spans", float64(tr.total))
	if err := tr.write(traceDir, w.name, seed); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}

	// Timed pass, as in the end-to-end run, with the transient tree beside
	// it on the workloads it can serve concurrently.
	tg = nil
	tg, _ = setup(w, func() target { return openDB(w, 0) })
	// The traced run has the ladder to pay for, so its timed pass gets 65 %
	// of the seconds (still over a hundred checkpoints) and the transient
	// tree three short repetitions.
	plan := timedPlan{warm: warmTime / 2, repLen: seconds * 13 / 20 / reps, reps: reps}
	if w.kind == kindA || w.kind == kindC {
		plan.beside, _ = setup(w, func() target { return openMasstree() })
		plan.besideLen, plan.besideReps = seconds/20, 3
	}
	res, err := timedPass(w, tg, seed, z, plan)
	if err != nil {
		return nil, err
	}
	r.tally(res.attempted, res.failed, res.firstFailure)
	if err := timedLayerMetrics(r, w, &res, base); err != nil {
		return nil, err
	}

	for k, v := range microTimings() {
		r.set(k, v)
	}
	return r, nil
}

// ladderMetrics turns the count pass and the rungs into per-layer metrics.
func ladderMetrics(r *run, w *workload, base countResult, rungs map[string]countResult) {
	ns := func(name string) float64 { return nsPerOp(rungs[name]) }
	self := func(metric, upper, below string) {
		d := ns(upper) - ns(below)
		r.set(metric, d)
		if d < 0 {
			r.note("NEGATIVE self time: %s = %s - %s = %.1f ns/op", metric, upper, below, d)
		}
	}
	ops := float64(base.ops)
	_, hasMT := rungs["masstree"]
	belowCore := "gen"
	if hasMT {
		belowCore = "masstree"
	}
	// The façade calls straight into one core.Store, or into shard.Store
	// when sharded; the transaction rungs sit between.
	belowShard, belowIncll := "core", "core"
	if w.kind == kindTxn {
		belowShard, belowIncll = "core_txn", "shard"
	}

	r.set("gen.ns_op", ns("gen"))
	r.set("masstree.ns_op", ns("masstree"))
	r.set("core.ns_op", ns("core"))
	self("core.self_ns_op", "core", belowCore)
	r.set("core.logging_ns_op", ns("core_logging"))
	r.set("shard.ns_op", ns("shard"))
	self("shard.self_ns_op", "shard", belowShard)
	r.set("incll.ns_op", ns("incll"))
	self("incll.self_ns_op", "incll", belowIncll)
	r.set("incll.obs_off_ns_op", ns("incll_obs_off"))
	r.set("obs.overhead_pct", 100*(ratio(ns("incll"), ns("incll_obs_off"))-1))
	r.set("trace.overhead_pct", 100*(ratio(ns("incll"), nsPerOp(base))-1))
	if w.kind == kindTxn {
		ct := rungs["core_txn"]
		r.set("txn.ns_op", ns("core_txn"))
		self("txn.self_ns_op", "core_txn", "core")
		r.set("txn.commit_ns", float64(ct.commitTime)/float64(ct.ops))
		r.set("shard.n4_over_n1", ratio(ns("shard"), ns("core_txn")))
		r.set("txn.fences_per_commit", ratio(float64(base.delta.nvm.Fences-base.inCkpt.Fences), float64(base.delta.commits)))
	}

	// Per-call means on the core rung.
	core := rungs["core"]
	r.set("core.get_ns", core.hists[opGet].mean())
	r.set("core.put_ns", folded(&core.hists, opPut, opInsert, opDelete).mean())
	r.set("core.scan_ns_key", ratio(float64(core.hists[opScan].sum), float64(core.scanKeys)))

	// Counts through the façade (they repeat exactly for a seed). The
	// per-op NVM counts leave out what happens inside Checkpoint calls.
	opNVM := base.delta.nvm.Sub(base.inCkpt)
	r.set("nvm.fences_per_op", float64(opNVM.Fences)/ops)
	r.set("nvm.writebacks_per_op", float64(opNVM.Writebacks)/ops)
	r.set("nvm.lines_per_op", float64(opNVM.LinesPersisted)/ops)
	r.set("core.logged_per_op", float64(base.delta.logged)/ops)
	r.set("core.logged_per_op_logging", float64(rungs["core_logging"].delta.logged)/ops)
	r.set("core.incll_val_per_op", float64(base.delta.inVal)/ops)
	r.set("core.incll_perm_per_op", float64(base.delta.inPerm)/ops)
	r.set("core.incll_ratio", ratio(float64(base.delta.inVal+base.delta.inPerm), float64(base.delta.inVal+base.delta.inPerm+base.delta.logged)))
	r.set("core.value_heap_bytes_per_op", float64(base.delta.heapBytes)/ops)
	r.set("alloc.limbo_max", float64(base.limboMax))
	r.set("epoch.ns_per_line", ratio(float64(base.ckptTime), float64(base.ckptLines)))

	// Counts only visible below the façade: the rung with the façade's
	// topology.
	in := rungs["core"]
	if w.shards > 1 {
		in = rungs["shard"]
	}
	r.set("extlog.entries_per_op", float64(in.delta.extEntries)/ops)
	r.set("extlog.words_per_op", float64(in.delta.extWords)/ops)
	r.set("alloc.heap_used_frac", in.heapFrac)
	r.set("alloc.heap_delta_words", float64(in.heapDelta))
	r.set("alloc.heap_bytes_per_key", ratio(float64(in.heapUsed)*8, float64(in.keys)))

	// Crash cycles, on the traced façade rung.
	cc := rungs["incll"]
	var replayed int
	var recovery time.Duration
	for i, n := range cc.replayed {
		replayed += n
		recovery += cc.recoveries[i]
	}
	r.set("extlog.replayed_per_crash", ratio(float64(replayed), float64(len(cc.replayed))))
	r.set("extlog.recover_ns_entry", ratio(float64(recovery), float64(replayed)))
	r.set("core.lazy_recoveries", float64(cc.lazy))
	r.set("incll.recovery_ms", median(durationsMs(cc.recoveries)))

	names := make([]string, 0, len(rungs))
	for name := range rungs {
		names = append(names, fmt.Sprintf("%s=%.0f", name, ns(name)))
	}
	sort.Strings(names)
	r.note("rungs, ns/op over %d ops with a checkpoint every %d: %v; untraced incll=%.0f", base.ops, w.ckptEvery, names, nsPerOp(base))
}

// timedLayerMetrics reports what only the two-client timed pass shows.
func timedLayerMetrics(r *run, w *workload, res *timedResult, base countResult) error {
	tput, p50, p99, err := timedSummary(r, res)
	if err != nil {
		return err
	}
	r.set("incll.op_p50_us", p50)
	r.set("incll.op_p99_us", p99)
	r.set("incll.p2_scaling_eff", ratio(tput, 2*float64(base.ops)/base.wall.Seconds()))

	// Per-kind latency: pooled over the repetitions, so the rarer kinds
	// have enough samples; a percentile they still cannot support stays 0.
	var pooled [numOpKinds]hist
	for i := range res.reps {
		for k := range pooled {
			pooled[k].merge(&res.reps[i].hists[k])
		}
	}
	quant := func(metric string, q float64, kinds ...opKind) {
		h := folded(&pooled, kinds...)
		if v, beyond, ok := h.quantile(q); ok {
			r.set(metric, v/1e3)
			r.note("%s: %d samples, %d beyond", metric, h.n, beyond)
		}
	}
	quant("incll.get_p50_us", 0.50, opGet)
	quant("incll.get_p99_us", 0.99, opGet)
	quant("incll.put_p50_us", 0.50, opPut, opInsert, opDelete)
	quant("incll.put_p99_us", 0.99, opPut, opInsert, opDelete)
	quant("incll.scan_p50_us", 0.50, opScan)
	quant("incll.txn_p50_us", 0.50, opTxn)
	quant("incll.txn_p99_us", 0.99, opTxn)
	if w.kind == kindTxn {
		r.set("txn.commits_per_attempt", ratio(float64(res.attempted), float64(res.attempted+res.conflicts)))
	}

	// Checkpoints as the driver's ticker saw them.
	ms := durationsMs(res.ckpts)
	sort.Float64s(ms)
	if n := len(ms); n > 0 {
		// p90 is the highest percentile ~150 checkpoints support with ten
		// samples beyond it.
		if beyond := n - (n*9+9)/10; beyond >= minBeyond {
			r.set("epoch.ckpt_p90_ms", ms[(n*9+9)/10-1])
		}
		r.set("epoch.ckpt_max_ms", ms[n-1])
		var busy float64
		for _, m := range ms {
			busy += m
		}
		r.set("epoch.ckpt_busy_frac", busy/1e3/res.wall.Seconds())
		r.set("epoch.lines_per_ckpt", float64(res.ckptLines)/float64(n))
		if w.shards == 4 {
			r.set("shard.ckpt_p50_ms_n4", median(ms))
		}
		r.note("epoch.*: %d checkpoints timed", n)
	}

	if len(res.beside) > 0 {
		var mts []float64
		for i := range res.beside {
			mts = append(mts, res.beside[i].throughput())
		}
		mt := median(mts)
		r.set("masstree.ops_s_p2", mt)
		r.set("masstree.incll_overhead_pct", 100*(ratio(mt, tput)-1))
	}
	return nil
}
