package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"incll/internal/nvm"
)

// counts is every count-pass ("c") value a metric is built from.
type counts struct {
	delta     counters
	inCkpt    nvm.StatsSnapshot
	ckptLines int
	limboMax  int64
	heapDelta int64
	keys      int
	replayed  []int
	lazy      int64
}

func countsOf(t *testing.T, w *workload, seed uint64, open func() target, crash bool) counts {
	t.Helper()
	tg, _ := setup(w, open)
	r, err := countPass(w, tg, seed, newZipfs(w), nil, true, crash)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %s", w.name, seed, r.failed, r.attempted, r.firstFailure)
	}
	return counts{r.delta, r.inCkpt, r.ckptLines, r.limboMax, r.heapDelta, r.keys, r.replayed, r.lazy}
}

// The count pass run twice yields identical values, through the façade
// (crash cycles included) and on the rung that shows heap and log fill; a
// second seed changes the counts but not the verdict.
func TestCountPassRepeatsExactly(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(50)
		facade := func() target { return openDB(w, 0) }
		below := func() target { return openShard(w, w.shards, w.kind == kindTxn) }
		if w.shards == 1 {
			below = func() target { return openCore(w, false, false) }
		}
		a, b := countsOf(t, w, 1, facade, true), countsOf(t, w, 1, facade, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: façade counts differ between two runs of seed 1:\n%+v\n%+v", w.name, a, b)
		}
		c, d := countsOf(t, w, 1, below, false), countsOf(t, w, 1, below, false)
		if !reflect.DeepEqual(c, d) {
			t.Errorf("%s: counts below the façade differ between two runs of seed 1:\n%+v\n%+v", w.name, c, d)
		}
		if w.kind == kindC || w.kind == kindE {
			continue // write-side counts are the same for every seed by design
		}
		if other := countsOf(t, w, 2, facade, true); reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 give the same counts", w.name)
		}
	}
}

// The bypass workloads bypass what the README says they do.
func TestBypassWorkloadsBypass(t *testing.T) {
	for _, name := range []string{"ycsb_a", "ycsb_c"} {
		full, _ := findWorkload(name)
		w := full.scaled(50)
		tg, _ := setup(w, func() target { return openCore(w, false, false) })
		r, err := countPass(w, tg, 1, newZipfs(w), nil, true, false)
		if err != nil || r.failed != 0 {
			t.Fatal(err, r.firstFailure)
		}
		if r.heapDelta != 0 || r.delta.heapBytes != 0 {
			t.Errorf("%s: heap grew by %d words, %d value bytes: values are not inline", name, r.heapDelta, r.delta.heapBytes)
		}
		if name == "ycsb_c" {
			opFences := r.delta.nvm.Fences - r.inCkpt.Fences
			if r.delta.extEntries != 0 || opFences != 0 || r.delta.logged != 0 {
				t.Errorf("ycsb_c: %d log entries, %d fences outside checkpoints", r.delta.extEntries, opFences)
			}
		}
	}
}

// The verifier must notice one wrong model entry and one dropped
// acknowledged transfer, and a failed op must reach the exit path.
func TestVerifierCatchesCorruption(t *testing.T) {
	full, _ := findWorkload("ycsb_a")
	w := full.scaled(50)
	tg, _ := setup(w, func() target { return openDB(w, 0) })
	m := newModel(w, 0, 1)
	if failed, first := verifyAll(w, tg.handle(0), []*model{m}); failed != 0 {
		t.Fatalf("clean store fails verification: %s", first)
	}
	m.vals[17]++
	if failed, _ := verifyAll(w, tg.handle(0), []*model{m}); failed == 0 {
		t.Error("a corrupted model entry went unnoticed")
	}

	full, _ = findWorkload("txn_transfer")
	w = full.scaled(50)
	tg, _ = setup(w, func() target { return openDB(w, 0) })
	tm := newModel(w, 0, 1)
	c := newClient(w, 0, tg.handle(0), newGenerator(w, 9, 0, 1, nil, nil), tm)
	c.runBlock(1)
	if failed, first := verifyAll(w, tg.handle(0), []*model{tm}); failed != 0 || c.failed != 0 {
		t.Fatalf("acknowledged transfer fails verification: %s %s", first, c.firstFailure)
	}
	tm.counter++ // an acknowledged commit the store does not hold
	failed, _ := verifyAll(w, tg.handle(0), []*model{tm})
	if failed == 0 {
		t.Error("a dropped acknowledged transfer went unnoticed")
	}

	run := &run{workload: w.name, values: map[string]float64{"setup_s": 1}}
	run.tally(100, failed, "dropped transfer")
	res, err := run.result([]metricDef{{"setup_s", "s", lower, 0.25}})
	if err != nil || res.Correct || res.Failed == 0 {
		t.Errorf("a failed operation does not reach the result: %+v, %v", res, err)
	}
	if failedExit(map[string]result{w.name: res}) == nil {
		t.Error("an incorrect result does not make the exit code non-zero")
	}
}

// Both clients and the ticker on every workload, briefly: the checks hold
// under real concurrency (run with -race and -cpu 1,2,4).
func TestTimedPassVerifies(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(50)
		tg, _ := setup(w, func() target { return openDB(w, 0) })
		res, err := timedPass(w, tg, 1, newZipfs(w), timedPlan{warm: 20 * time.Millisecond, repLen: 150 * time.Millisecond, reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.name, res.failed, res.attempted, res.firstFailure)
		}
		if len(res.ckpts) == 0 {
			t.Errorf("%s: the driver's ticker never checkpointed", w.name)
		}
	}
}

// BENCHMARK.json repeats the catalogue; the two must not drift.
func TestContractMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	var gated []*workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the benchmark", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, doc.Workloads[i].Name, w.name)
		}
	}
}
