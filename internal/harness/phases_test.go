package harness

import (
	"os"
	"sort"
	"testing"
	"time"

	"incll/internal/ycsb"
)

func TestPhasesInResult(t *testing.T) {
	cfg := quickCfg(INCLL, ycsb.A, ycsb.Uniform)
	cfg.PhaseSampleEvery = 1
	r := Run(cfg)

	if r.PhaseSampleEvery != 1 {
		t.Fatalf("PhaseSampleEvery = %d, want 1", r.PhaseSampleEvery)
	}
	if r.Phases == nil || r.Phases["descent"].Count == 0 {
		t.Fatalf("descent phase not attributed: %+v", r.Phases)
	}

	// Attribution must describe the measured phase only: with every op
	// sampled, descent count can't exceed measured ops (preload excluded).
	if got := r.Phases["descent"].Count; got > r.Ops {
		t.Fatalf("descent count %d exceeds measured ops %d — preload leaked into attribution", got, r.Ops)
	}

	// Disabled attribution produces no phase map.
	cfg.PhaseSampleEvery = -1
	r = Run(cfg)
	if r.Phases != nil {
		t.Fatalf("Phases should be nil when disabled, got %+v", r.Phases)
	}
}

// TestPhaseAttributionOverheadAB measures the cost of attribution at the
// default 1-in-8 sampling against a run with attribution compiled out of
// the hot path (nil PhaseSet). Interleaved A/B/A/B rounds cancel thermal
// and scheduler drift. Opt-in (INCLL_AB=1): a wall-clock assertion on a
// shared CI runner would flake; run locally to validate the ≤5% budget.
func TestPhaseAttributionOverheadAB(t *testing.T) {
	if os.Getenv("INCLL_AB") != "1" {
		t.Skip("set INCLL_AB=1 to run the attribution overhead A/B check")
	}
	// Runs must be long enough to amortise checkpoint-tick quantisation
	// (a 64ms STW landing in one side's window but not the other's) —
	// sub-second runs measure scheduler luck, not the instrumentation.
	const rounds = 6
	cfg := RunConfig{
		Mode: INCLL, Workload: ycsb.A, Dist: ycsb.Zipfian,
		TreeSize: 100_000, Threads: 2, OpsPerThread: 600_000,
		EpochInterval: 64 * time.Millisecond, Seed: 1,
	}
	// One discarded warm-up run: the first run of a process pays page
	// faults and branch-predictor training that would otherwise all land
	// on one side of the comparison.
	cfg.PhaseSampleEvery = -1
	Run(cfg)
	deltas := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		// Alternate which side runs first so slow drift (thermal,
		// neighbouring load) cancels instead of accumulating on one side.
		// Adjacent runs are paired into a per-round delta: a shared-host
		// hiccup then spoils one round, not the whole mean.
		var on, off float64
		order := []int{0, -1}
		if i&1 == 1 {
			order = []int{-1, 0}
		}
		for _, every := range order {
			cfg.PhaseSampleEvery = every
			tp := Run(cfg).Throughput
			if every < 0 {
				off = tp
			} else {
				on = tp
			}
		}
		d := (off - on) / off
		deltas = append(deltas, d)
		t.Logf("round %d: on %.0f ops/s, off %.0f ops/s, delta %.2f%%", i, on, off, 100*d)
	}
	// Trimmed mean: drop the best and worst round before averaging, so a
	// single noisy round (either direction) can't decide the verdict.
	sort.Float64s(deltas)
	var sum float64
	trimmed := deltas[1 : len(deltas)-1]
	for _, d := range trimmed {
		sum += d
	}
	delta := sum / float64(len(trimmed))
	t.Logf("attribution overhead: %.2f%% (trimmed mean of %d rounds)", 100*delta, rounds)
	if delta > 0.05 {
		t.Fatalf("attribution overhead %.2f%% exceeds 5%% budget", 100*delta)
	}
}
