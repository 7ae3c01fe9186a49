package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestHistBucketsAreContiguousAndNarrow(t *testing.T) {
	prevHi := uint64(0)
	for i := 0; i < histBuckets-1; i++ {
		lo, hi := histBounds(i)
		if i > 0 && lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if histIndex(lo) != i || histIndex(hi) != i {
			t.Fatalf("bucket %d [%d,%d] maps to %d and %d", i, lo, hi, histIndex(lo), histIndex(hi))
		}
		if lo >= histSub && float64(hi-lo+1)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d [%d,%d] wider than 1/%d of its lower edge", i, lo, hi, histSub)
		}
		prevHi = hi
	}
}

// A reported quantile must be within 2 % of the exact one, for latencies
// from tens of nanoseconds to tens of milliseconds.
func TestHistQuantileError(t *testing.T) {
	r := newRNG(7)
	var h hist
	var exact []float64
	for i := 0; i < 200_000; i++ {
		v := math.Exp(math.Log(20) + r.float()*math.Log(2e7/20)) // log-uniform 20 ns … 20 ms
		h.add(time.Duration(v))
		exact = append(exact, v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		got, beyond, ok := h.quantile(q)
		if !ok {
			t.Fatalf("q=%v refused with %d samples beyond", q, beyond)
		}
		want := exact[int(q*float64(len(exact))+0.5)-1]
		if err := math.Abs(got-want) / want; err > 0.02 {
			t.Errorf("q=%v: got %.1f, exact %.1f, error %.2f%%", q, got, want, 100*err)
		}
	}
}

func TestHistRefusesUnsupportedPercentile(t *testing.T) {
	var h hist
	for i := 1; i <= 500; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	if _, beyond, ok := h.quantile(0.99); ok {
		t.Errorf("p99 of 500 samples accepted with only %d beyond", beyond)
	}
	if _, _, ok := h.quantile(0.5); !ok {
		t.Errorf("p50 of 500 samples refused")
	}
	for i := 1; i <= 1500; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	if _, beyond, ok := h.quantile(0.99); !ok || beyond < minBeyond {
		t.Errorf("p99 of 2000 samples refused (%d beyond)", beyond)
	}
}
