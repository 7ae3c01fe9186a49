package harness

import (
	"io"
	"strings"
	"testing"
	"time"

	"incll/internal/core"
	"incll/internal/nvm"
	"incll/internal/ycsb"
)

// quick returns laptop-instant parameters for smoke tests.
func quick() Params {
	return Params{TreeSize: 20_000, Threads: 2, Ops: 15_000, Seed: 1}
}

func quickCfg(m Mode, w ycsb.Workload, d ycsb.Distribution) RunConfig {
	return RunConfig{
		Mode: m, Workload: w, Dist: d,
		TreeSize: 20_000, Threads: 2, OpsPerThread: 15_000,
		EpochInterval: 10 * time.Millisecond,
		Seed:          1,
	}
}

func TestRunAllModesProduceThroughput(t *testing.T) {
	for _, m := range []Mode{MT, MTPlus, INCLL, LOGGING} {
		r := Run(quickCfg(m, ycsb.A, ycsb.Uniform))
		if r.Throughput <= 0 {
			t.Fatalf("%v: throughput %f", m, r.Throughput)
		}
		if r.Ops != 30_000 {
			t.Fatalf("%v: ops %d", m, r.Ops)
		}
	}
}

func TestDurableRunsCountLoggingActivity(t *testing.T) {
	// Deterministic comparison (wall-clock epochs would make the logged
	// counts depend on scheduler speed): identical op streams, manual
	// epoch boundaries every 2000 ops, large-ish tree so nodes are
	// revisited less than twice per epoch — the regime where InCLL wins.
	counts := map[bool]int64{}
	for _, disable := range []bool{false, true} {
		cfg := RunConfig{TreeSize: 100_000, Threads: 1}
		arenaWords, heapWords, segWords := SizeArena(cfg)
		a := nvm.New(nvm.Config{Words: arenaWords})
		s, _ := core.Open(a, core.Config{
			Workers: 1, LogSegWords: segWords, HeapWords: heapWords, DisableInCLL: disable,
		})
		for k := uint64(0); k < cfg.TreeSize; k++ {
			s.Put(core.EncodeUint64(k), k)
		}
		s.Advance()
		logged0 := s.Stats().LoggedNodes.Load()
		g := ycsb.NewGenerator(ycsb.A, ycsb.Uniform, cfg.TreeSize, 1)
		for i := 0; i < 30_000; i++ {
			op := g.Next()
			if op.Kind == ycsb.OpPut {
				s.Put(core.EncodeUint64(op.Key), uint64(i))
			} else {
				s.Get(core.EncodeUint64(op.Key))
			}
			if i%2000 == 1999 {
				s.Advance()
			}
		}
		counts[disable] = s.Stats().LoggedNodes.Load() - logged0
		if !disable && s.Stats().InCLLPerm.Load()+s.Stats().InCLLVal.Load() == 0 {
			t.Fatal("INCLL run used no in-cache-line logs")
		}
	}
	if counts[true] == 0 {
		t.Fatal("LOGGING run logged no nodes")
	}
	if counts[false]*2 >= counts[true] {
		t.Fatalf("InCLL did not substantially reduce logged nodes: %d (INCLL) vs %d (LOGGING)",
			counts[false], counts[true])
	}
}

func TestScanWorkloadRuns(t *testing.T) {
	r := Run(quickCfg(INCLL, ycsb.E, ycsb.Zipfian))
	if r.Throughput <= 0 {
		t.Fatalf("scan workload throughput %f", r.Throughput)
	}
}

func TestFig2SmokePrintsAllRows(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	p := quick()
	p.Ops = 5_000
	rows := Fig2(&sb, p)
	if len(rows) != 8 { // 4 workloads × 2 distributions
		t.Fatalf("Fig2 returned %d rows", len(rows))
	}
	if !strings.Contains(sb.String(), "YCSB_A") {
		t.Fatal("Fig2 output missing workloads")
	}
}

func TestRecoveryExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	row := Recovery(io.Discard, Params{TreeSize: 1_000_000, Threads: 1, Ops: 1, Seed: 2})
	// Every node the epoch logged must be replayed: a recovery that
	// silently skipped entries would leave applied below logged.
	if logged, applied := row.Values["logged"], row.Values["applied"]; applied == 0 || applied != logged {
		t.Fatalf("recovery replayed %.0f entries for %.0f logged nodes, want equal and > 0", applied, logged)
	}
	if row.Values["recoveryMs"] <= 0 {
		t.Fatal("no recovery time measured")
	}
}

func TestFlushCostExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	row := FlushCost(io.Discard, Params{TreeSize: 50_000, Threads: 1, Ops: 1, Seed: 3})
	if row.Values["fraction"] <= 0 || row.Values["fraction"] > 0.5 {
		t.Fatalf("flush fraction %.4f out of plausible range", row.Values["fraction"])
	}
}
