package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"incll/internal/core"
	"incll/internal/nvm"
	"incll/internal/ycsb"
)

// Params scales the experiment suite. The paper's full-size parameters
// (20M keys, 8 threads, 1M ops/thread, 56-thread sweeps) are reproducible
// by passing them explicitly; the defaults keep the whole suite laptop-
// sized. Every figure prints the parameters it ran with under its header.
type Params struct {
	TreeSize uint64 // default 200k (paper: 20M)
	Threads  int    // default 4 (paper: 8)
	Ops      int    // ops per thread, default 200k (paper: 1M)
	Seed     int64
}

func (p *Params) setDefaults() {
	if p.TreeSize == 0 {
		p.TreeSize = 200_000
	}
	if p.Threads <= 0 {
		p.Threads = 4
	}
	if p.Ops <= 0 {
		p.Ops = 200_000
	}
}

func (p Params) base() RunConfig {
	return RunConfig{
		TreeSize:     p.TreeSize,
		Threads:      p.Threads,
		OpsPerThread: p.Ops,
		Seed:         p.Seed,
	}
}

// Row is one printed result row.
type Row struct {
	Labels []string
	Values map[string]float64
}

func printHeader(w io.Writer, title string, p Params) {
	fmt.Fprintf(w, "\n== %s ==\n# base: size=%d threads=%d ops/thread=%d seed=%d\n",
		title, p.TreeSize, p.Threads, p.Ops, p.Seed)
}

// Fig2 regenerates Figure 2: throughput of MT, MT+ and INCLL on
// YCSB A/B/C/E under uniform and zipfian key distributions.
func Fig2(w io.Writer, p Params) []Row {
	p.setDefaults()
	printHeader(w, "Figure 2: throughput (Mops/s) of MT, MT+, INCLL", p)
	fmt.Fprintf(w, "%-8s %-8s %10s %10s %10s %12s\n", "workload", "dist", "MT", "MT+", "INCLL", "INCLL/MT+")
	var rows []Row
	for _, wl := range []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.E} {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			tput := map[string]float64{}
			for _, m := range []Mode{MT, MTPlus, INCLL} {
				cfg := p.base()
				cfg.Mode, cfg.Workload, cfg.Dist = m, wl, d
				tput[m.String()] = Run(cfg).Throughput
			}
			rel := tput["INCLL"] / tput["MT+"]
			fmt.Fprintf(w, "%-8s %-8s %10.3f %10.3f %10.3f %11.1f%%\n",
				wl, d, tput["MT"]/1e6, tput["MT+"]/1e6, tput["INCLL"]/1e6, rel*100)
			rows = append(rows, Row{
				Labels: []string{wl.String(), d.String()},
				Values: map[string]float64{"MT": tput["MT"], "MT+": tput["MT+"], "INCLL": tput["INCLL"], "rel": rel},
			})
		}
	}
	return rows
}

// RunMedian runs cfg reps times and returns the run with median
// throughput, damping scheduler noise in the latency sweeps.
func RunMedian(cfg RunConfig, reps int) Result {
	if reps < 1 {
		reps = 1
	}
	results := make([]Result, reps)
	for i := range results {
		results[i] = Run(cfg)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Throughput < results[j].Throughput })
	return results[reps/2]
}

// FenceDelays is the paper's emulated NVM latency sweep (Figures 3 and 8).
var FenceDelays = []time.Duration{0, 100 * time.Nanosecond, 200 * time.Nanosecond,
	500 * time.Nanosecond, 1 * time.Microsecond}

// Fig3 regenerates Figure 3: INCLL throughput (relative to zero added
// latency) as the emulated post-sfence NVM latency grows, on YCSB-A.
func Fig3(w io.Writer, p Params) []Row {
	p.setDefaults()
	printHeader(w, "Figure 3: INCLL vs emulated flush latency (YCSB_A), relative throughput", p)
	fmt.Fprintf(w, "%-8s", "latency")
	for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
		fmt.Fprintf(w, " %12s", d)
	}
	fmt.Fprintln(w)
	base := map[ycsb.Distribution]float64{}
	var rows []Row
	for _, fd := range FenceDelays {
		vals := map[string]float64{}
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			cfg := p.base()
			cfg.Mode, cfg.Workload, cfg.Dist, cfg.FenceDelay = INCLL, ycsb.A, d, fd
			r := RunMedian(cfg, 3)
			if fd == 0 {
				base[d] = r.Throughput
			}
			vals[d.String()] = r.Throughput / base[d]
		}
		fmt.Fprintf(w, "%-8s %11.1f%% %11.1f%%\n", fd, vals["uniform"]*100, vals["zipfian"]*100)
		rows = append(rows, Row{Labels: []string{fd.String()}, Values: vals})
	}
	return rows
}

// Fig4 regenerates Figure 4: MT+ vs INCLL throughput across thread counts
// on YCSB-A.
func Fig4(w io.Writer, p Params, threads []int) []Row {
	p.setDefaults()
	if len(threads) == 0 {
		threads = []int{1, 2, 4, 8}
	}
	printHeader(w, "Figure 4: throughput (Mops/s) vs threads (YCSB_A)", p)
	fmt.Fprintf(w, "%-8s %-8s %10s %10s %12s\n", "threads", "dist", "MT+", "INCLL", "INCLL/MT+")
	var rows []Row
	for _, th := range threads {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			vals := map[string]float64{}
			for _, m := range []Mode{MTPlus, INCLL} {
				cfg := p.base()
				cfg.Mode, cfg.Workload, cfg.Dist, cfg.Threads = m, ycsb.A, d, th
				vals[m.String()] = Run(cfg).Throughput
			}
			rel := vals["INCLL"] / vals["MT+"]
			fmt.Fprintf(w, "%-8d %-8s %10.3f %10.3f %11.1f%%\n",
				th, d, vals["MT+"]/1e6, vals["INCLL"]/1e6, rel*100)
			rows = append(rows, Row{Labels: []string{fmt.Sprint(th), d.String()}, Values: vals})
		}
	}
	return rows
}

// Fig5And6 regenerates Figures 5 and 6: throughput and INCLL overhead
// across tree sizes on YCSB-A. The overhead-vs-size curve is Figure 6's
// parabola.
func Fig5And6(w io.Writer, p Params, sizes []uint64) []Row {
	p.setDefaults()
	if len(sizes) == 0 {
		sizes = []uint64{10_000, 100_000, 1_000_000, 2_000_000}
	}
	printHeader(w, "Figures 5+6: throughput (Mops/s) and INCLL overhead vs tree size (YCSB_A)", p)
	fmt.Fprintf(w, "%-10s %-8s %10s %10s %12s\n", "size", "dist", "MT+", "INCLL", "overhead")
	var rows []Row
	for _, sz := range sizes {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			vals := map[string]float64{}
			for _, m := range []Mode{MTPlus, INCLL} {
				cfg := p.base()
				cfg.Mode, cfg.Workload, cfg.Dist, cfg.TreeSize = m, ycsb.A, d, sz
				vals[m.String()] = Run(cfg).Throughput
			}
			overhead := 1 - vals["INCLL"]/vals["MT+"]
			fmt.Fprintf(w, "%-10d %-8s %10.3f %10.3f %11.1f%%\n",
				sz, d, vals["MT+"]/1e6, vals["INCLL"]/1e6, overhead*100)
			vals["overhead"] = overhead
			rows = append(rows, Row{Labels: []string{fmt.Sprint(sz), d.String()}, Values: vals})
		}
	}
	return rows
}

// Fig7 regenerates Figure 7: number of externally logged nodes with InCLL
// enabled (INCLL) and disabled (LOGGING), across tree sizes, YCSB-A.
func Fig7(w io.Writer, p Params, sizes []uint64) []Row {
	p.setDefaults()
	if len(sizes) == 0 {
		sizes = []uint64{10_000, 100_000, 1_000_000, 2_000_000}
	}
	printHeader(w, "Figure 7: logged nodes, LOGGING vs INCLL (YCSB_A)", p)
	fmt.Fprintf(w, "%-10s %-8s %12s %12s %8s\n", "size", "dist", "LOGGING", "INCLL", "ratio")
	var rows []Row
	for _, sz := range sizes {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			vals := map[string]float64{}
			for _, m := range []Mode{LOGGING, INCLL} {
				cfg := p.base()
				cfg.Mode, cfg.Workload, cfg.Dist, cfg.TreeSize = m, ycsb.A, d, sz
				vals[m.String()] = float64(Run(cfg).LoggedNodes)
			}
			ratio := 0.0
			if vals["INCLL"] > 0 {
				ratio = vals["LOGGING"] / vals["INCLL"]
			}
			fmt.Fprintf(w, "%-10d %-8s %12.0f %12.0f %7.1fx\n",
				sz, d, vals["LOGGING"], vals["INCLL"], ratio)
			rows = append(rows, Row{Labels: []string{fmt.Sprint(sz), d.String()}, Values: vals})
		}
	}
	return rows
}

// Fig8 regenerates Figure 8: throughput vs emulated flush latency for
// LOGGING and INCLL on YCSB-A (relative to each system's zero-latency
// throughput).
func Fig8(w io.Writer, p Params) []Row {
	p.setDefaults()
	printHeader(w, "Figure 8: relative throughput vs flush latency, LOGGING vs INCLL (YCSB_A)", p)
	fmt.Fprintf(w, "%-8s %-8s %12s %12s\n", "latency", "dist", "LOGGING", "INCLL")
	base := map[string]float64{}
	var rows []Row
	for _, fd := range FenceDelays {
		for _, d := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			vals := map[string]float64{}
			for _, m := range []Mode{LOGGING, INCLL} {
				cfg := p.base()
				cfg.Mode, cfg.Workload, cfg.Dist, cfg.FenceDelay = m, ycsb.A, d, fd
				r := RunMedian(cfg, 3)
				key := m.String() + d.String()
				if fd == 0 {
					base[key] = r.Throughput
				}
				vals[m.String()] = r.Throughput / base[key]
			}
			fmt.Fprintf(w, "%-8s %-8s %11.1f%% %11.1f%%\n", fd, d, vals["LOGGING"]*100, vals["INCLL"]*100)
			rows = append(rows, Row{Labels: []string{fd.String(), d.String()}, Values: vals})
		}
	}
	return rows
}

// FlushCost reproduces §6.2: the cost of the epoch-boundary global cache
// flush relative to the epoch interval.
func FlushCost(w io.Writer, p Params) Row {
	p.setDefaults()
	printHeader(w, "§6.2: global flush cost", p)
	cfg := p.base()
	cfg.Mode, cfg.Workload, cfg.Dist = INCLL, ycsb.A, ycsb.Uniform
	cfg.setDefaults()

	arenaWords, heapWords, segWords := SizeArena(cfg)
	a := nvm.New(nvm.Config{Words: arenaWords})
	s, _ := core.Open(a, core.Config{Workers: cfg.Threads, LogSegWords: segWords, HeapWords: heapWords})
	for k := uint64(0); k < cfg.TreeSize; k++ {
		s.Put(core.EncodeUint64(k), k)
	}
	s.Advance()

	g := ycsb.NewGenerator(ycsb.A, ycsb.Uniform, cfg.TreeSize, cfg.Seed)
	const rounds = 10
	var flushTotal time.Duration
	var lines int
	for r := 0; r < rounds; r++ {
		// One epoch's worth of work at the configured interval.
		deadline := time.Now().Add(cfg.EpochInterval)
		for time.Now().Before(deadline) {
			for i := 0; i < 512; i++ {
				op := g.Next()
				if op.Kind == ycsb.OpPut {
					s.Put(core.EncodeUint64(op.Key), op.Key)
				} else {
					s.Get(core.EncodeUint64(op.Key))
				}
			}
		}
		t0 := time.Now()
		lines += s.Advance()
		flushTotal += time.Since(t0)
	}
	avg := flushTotal / rounds
	frac := float64(avg) / float64(cfg.EpochInterval)
	fmt.Fprintf(w, "avg flush %v over %d epochs (%d lines/epoch), %.2f%% of a %v epoch\n",
		avg, rounds, lines/rounds, frac*100, cfg.EpochInterval)
	return Row{Labels: []string{"flush"}, Values: map[string]float64{
		"avgFlushMs": float64(avg) / float64(time.Millisecond),
		"fraction":   frac,
		"lines":      float64(lines / rounds),
	}}
}

// Recovery reproduces §6.3: crash immediately before an epoch boundary
// after one full epoch of work that the InCLLs cannot absorb, on a
// 1M-key tree, then measure recovery. Preloading the even keys before the
// odd ones leaves every leaf full, so a second hot slot in a value line has
// no free slot to relocate to, and one op in eight inserts a fresh key —
// the ikey of an existing one plus a suffix byte — which splits a full leaf:
// both take the external log, which recovery must replay.
func Recovery(w io.Writer, p Params) Row {
	p.setDefaults()
	if p.TreeSize < 1_000_000 {
		p.TreeSize = 1_000_000 // the paper's worst-case tree size for InCLL
	}
	printHeader(w, "§6.3: recovery time (crash just before the epoch boundary)", p)
	size := p.TreeSize
	cfg := p.base()
	arenaWords, heapWords, segWords := SizeArena(cfg)
	a := nvm.New(nvm.Config{Words: arenaWords})
	coreCfg := core.Config{Workers: cfg.Threads, LogSegWords: segWords, HeapWords: heapWords}
	s, _ := core.Open(a, coreCfg)
	h := s.Handle(0)
	for odd := uint64(0); odd < 2; odd++ {
		for k := odd; k < size; k += 2 {
			h.Put(core.EncodeUint64(k), k)
		}
	}
	s.Advance()

	// One full epoch of write-heavy work, no boundary: every logged node
	// stays in the log.
	g := ycsb.NewGenerator(ycsb.A, ycsb.Uniform, size, p.Seed)
	logged0 := s.Stats().LoggedNodes.Load()
	deadline := time.Now().Add(64 * time.Millisecond)
	ops := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 512; i++ {
			op := g.Next()
			switch {
			case ops%8 == 0:
				h.Put(append(core.EncodeUint64(op.Key), byte(ops)), op.Key)
			case op.Kind == ycsb.OpPut:
				h.Put(core.EncodeUint64(op.Key), op.Key)
			default:
				h.Get(core.EncodeUint64(op.Key))
			}
			ops++
		}
	}
	logged := s.Stats().LoggedNodes.Load() - logged0

	a.Crash(nvm.RandomPolicy(0.5, p.Seed))
	a.ResetReservations()
	t0 := time.Now()
	s2, _ := core.Open(a, coreCfg)
	recovery := time.Since(t0)
	applied := s2.RecoveredLogEntries()

	fmt.Fprintf(w, "epoch ops=%d loggedNodes=%d appliedEntries=%d recovery=%v\n",
		ops, logged, applied, recovery)
	return Row{Labels: []string{"recovery"}, Values: map[string]float64{
		"ops":        float64(ops),
		"logged":     float64(logged),
		"applied":    float64(applied),
		"recoveryMs": float64(recovery) / float64(time.Millisecond),
	}}
}

// AblationEpochLength sweeps the checkpoint interval: shorter epochs mean
// more frequent flushes and more first-touch logging; longer epochs mean
// more potential data loss. The paper picks 64 ms (§4) — this ablation
// shows the trade-off around that choice.
func AblationEpochLength(w io.Writer, p Params) []Row {
	p.setDefaults()
	printHeader(w, "Ablation: epoch length (INCLL, YCSB_A, uniform)", p)
	fmt.Fprintf(w, "%-10s %12s %14s %12s\n", "interval", "Mops/s", "loggedNodes", "flushes")
	var rows []Row
	for _, iv := range []time.Duration{8 * time.Millisecond, 16 * time.Millisecond,
		32 * time.Millisecond, 64 * time.Millisecond, 128 * time.Millisecond} {
		cfg := p.base()
		cfg.Mode, cfg.Workload, cfg.Dist, cfg.EpochInterval = INCLL, ycsb.A, ycsb.Uniform, iv
		r := Run(cfg)
		fmt.Fprintf(w, "%-10s %12.3f %14d %12d\n", iv, r.Throughput/1e6, r.LoggedNodes, r.Advances)
		rows = append(rows, Row{Labels: []string{iv.String()}, Values: map[string]float64{
			"tput": r.Throughput, "logged": float64(r.LoggedNodes), "advances": float64(r.Advances),
		}})
	}
	return rows
}

// AblationEviction sweeps the simulated cache's dirty-line capacity:
// background eviction spreads write-back traffic through the epoch (as a
// real cache's replacement traffic does), shrinking the boundary flush.
func AblationEviction(w io.Writer, p Params) []Row {
	p.setDefaults()
	printHeader(w, "Ablation: background eviction capacity (INCLL, YCSB_A, uniform)", p)
	fmt.Fprintf(w, "%-10s %12s %12s %14s\n", "capacity", "Mops/s", "evictions", "flushedLines")
	var rows []Row
	for _, cap := range []int{0, 4096, 16384, 65536} {
		cfg := p.base()
		cfg.Mode, cfg.Workload, cfg.Dist, cfg.DirtyCapacity = INCLL, ycsb.A, ycsb.Uniform, cap
		r := Run(cfg)
		fmt.Fprintf(w, "%-10d %12.3f %12d %14d\n", cap, r.Throughput/1e6, r.Evictions, r.FlushedLines)
		rows = append(rows, Row{Labels: []string{fmt.Sprint(cap)}, Values: map[string]float64{
			"tput": r.Throughput, "evictions": float64(r.Evictions),
		}})
	}
	return rows
}
