package main

import (
	"math"
	"testing"
)

func testStream(w *workload, seed uint64, client, clients, n int) []op {
	z := newZipfs(w)
	g := newGenerator(w, seed, client, clients, z.key, z.length)
	ops := make([]op, n)
	g.fill(ops)
	return ops
}

func TestSameSeedSameOps(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(50)
		a, b := testStream(w, 1, 0, 2, 5000), testStream(w, 1, 0, 2, 5000)
		other := testStream(w, 2, 0, 2, 5000)
		same := true
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two generators with one seed: %+v vs %+v", w.name, i, a[i], b[i])
			}
			same = same && a[i] == other[i]
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generate the same ops", w.name)
		}
	}
}

// Writers own disjoint keys: whatever a client writes has its parity.
func TestWritesStayOnOwnKeys(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(50)
		if w.kind == kindTxn {
			continue // transfers share accounts by design
		}
		for client := 0; client < 2; client++ {
			for _, o := range testStream(w, 3, client, 2, 5000) {
				if (o.kind == opPut || o.kind == opInsert || o.kind == opDelete) && o.idx%2 != uint64(client) {
					t.Fatalf("%s: client %d writes key %d", w.name, client, o.idx)
				}
			}
		}
	}
}

func TestZipfRankOneFrequency(t *testing.T) {
	const n, draws = 100_000, 2_000_000
	z := newZipf(n, zipfTheta)
	r := newRNG(11)
	var first, second int
	for i := 0; i < draws; i++ {
		switch z.rank(&r) {
		case 0:
			first++
		case 1:
			second++
		}
	}
	theory := 1 / zeta(n, zipfTheta)
	if got := float64(first) / draws; math.Abs(got-theory)/theory > 0.02 {
		t.Errorf("rank 1 drawn with frequency %.5f, theory %.5f", got, theory)
	}
	theory2 := theory / math.Pow(2, zipfTheta)
	if got := float64(second) / draws; math.Abs(got-theory2)/theory2 > 0.02 {
		t.Errorf("rank 2 drawn with frequency %.5f, theory %.5f", got, theory2)
	}
}
