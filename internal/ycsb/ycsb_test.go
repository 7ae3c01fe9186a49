package ycsb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestMixRatios(t *testing.T) {
	cases := []struct {
		w        Workload
		putFrac  float64
		scanFrac float64
	}{
		{A, 0.50, 0},
		{B, 0.05, 0},
		{C, 0.00, 0},
		{E, 0.05, 0.95}, // the spec's shape: 95% scans, 5% inserts
	}
	const n = 200000
	for _, c := range cases {
		g := NewGenerator(c.w, Uniform, 1000, 1)
		puts, scans := 0, 0
		for i := 0; i < n; i++ {
			op := g.Next()
			switch op.Kind {
			case OpPut:
				puts++
			case OpScan:
				scans++
				if op.ScanLen != ScanLength {
					t.Fatalf("%v: default scan length %d, want %d", c.w, op.ScanLen, ScanLength)
				}
			}
		}
		frac := float64(puts) / n
		if math.Abs(frac-c.putFrac) > 0.01 {
			t.Errorf("%v: put fraction %.3f, want %.2f", c.w, frac, c.putFrac)
		}
		if math.Abs(float64(scans)/n-c.scanFrac) > 0.01 {
			t.Errorf("%v: scan fraction %.3f, want %.2f", c.w, float64(scans)/n, c.scanFrac)
		}
	}
}

// TestPinnedStreams pins the first 64 ops of two seeded streams — kind,
// key and scan length (g get, p put, s key/length scan) — so a change to
// the generator cannot silently change every figure's workload. Every scan
// has the constant ScanLength, which takes no rng draw.
func TestPinnedStreams(t *testing.T) {
	cases := []struct {
		w    Workload
		d    Distribution
		want []string
	}{
		{E, Zipfian, []string{
			"s65976/10 s66416/10 s13500/10 s31856/10 s60434/10 s4705/10 s676/10 s13903/10",
			"s9713/10 s7604/10 s11927/10 s56422/10 s21111/10 s88492/10 s81048/10 s0/10",
			"s54071/10 s78789/10 s0/10 s72041/10 s54449/10 s58073/10 s21224/10 s58045/10",
			"s11927/10 s21111/10 s78789/10 p165387 s70547/10 p119542 s47617/10 s61552/10",
			"s83913/10 s11507/10 s34952/10 s22197/10 p113702 s59748/10 s45948/10 s76047/10",
			"s12189/10 s83490/10 s77116/10 s9876/10 s36579/10 s21375/10 s37786/10 s93463/10",
			"s74730/10 s80491/10 s81314/10 s12008/10 s30568/10 s53549/10 s8831/10 s38636/10",
			"s0/10 s9282/10 s52638/10 s45233/10 s41259/10 s97268/10 s19324/10 s63252/10",
		}},
		{A, Uniform, []string{
			"g53551 p10051 g67320 p76148 g79449 g69287 g58836 p82873",
			"p84091 p53331 g49956 p15637 p31109 g31650 g98971 p84443",
			"g88459 p61739 p38907 g87780 p42716 g23071 p81907 g59062",
			"g61397 g69721 g64712 p89579 g79825 p43734 g77901 p87610",
			"g24717 g29479 g31750 g95923 p13702 p7257 g97301 g33018",
			"p40041 p19021 p58280 p8055 g12453 g58217 p38218 p17514",
			"g79180 p50071 p56823 p78805 g4765 p63083 g21379 g50113",
			"g31422 g28189 g587 g30399 p8244 g22529 g47599 g37514",
		}},
	}
	for _, c := range cases {
		g := NewGenerator(c.w, c.d, 100_000, 1)
		want := strings.Fields(strings.Join(c.want, " "))
		for i, w := range want {
			op := g.Next()
			var got string
			switch op.Kind {
			case OpGet:
				got = fmt.Sprintf("g%d", op.Key)
			case OpPut:
				got = fmt.Sprintf("p%d", op.Key)
			case OpScan:
				got = fmt.Sprintf("s%d/%d", op.Key, op.ScanLen)
			}
			if got != w {
				t.Fatalf("%v/%v op %d = %s, want %s", c.w, c.d, i, got, w)
			}
		}
	}
}

func TestKeysInRange(t *testing.T) {
	for _, d := range []Distribution{Uniform, Zipfian} {
		g := NewGenerator(A, d, 5000, 2)
		for i := 0; i < 100000; i++ {
			if k := g.NextKey(); k >= 5000 {
				t.Fatalf("%v: key %d out of range", d, k)
			}
		}
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	const space = 100000
	g := NewGenerator(C, Zipfian, space, 3)
	counts := map[uint64]int{}
	const n = 300000
	for i := 0; i < n; i++ {
		counts[g.NextKey()]++
	}
	// The most popular key should take a few percent of all draws; under
	// uniform it would take ~0.001%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / n; frac < 0.01 {
		t.Fatalf("zipfian max-key fraction %.5f, want > 0.01", frac)
	}
	// And the draws must still touch a broad set of keys.
	if len(counts) < space/20 {
		t.Fatalf("zipfian touched only %d distinct keys", len(counts))
	}
}

func TestUniformIsNotSkewed(t *testing.T) {
	const space = 1000
	g := NewGenerator(C, Uniform, space, 4)
	counts := make([]int, space)
	const n = 500000
	for i := 0; i < n; i++ {
		counts[g.NextKey()]++
	}
	for k, c := range counts {
		frac := float64(c) / n
		if frac > 0.005 { // expected 0.001
			t.Fatalf("uniform key %d drawn with fraction %.4f", k, frac)
		}
	}
}

func TestScrambleSpreadsHotKeys(t *testing.T) {
	// Consecutive zipf ranks must not map to consecutive keys.
	adjacent := 0
	for i := uint64(0); i < 1000; i++ {
		a := Scramble(i) % 100000
		b := Scramble(i+1) % 100000
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			adjacent++
		}
	}
	if adjacent > 5 {
		t.Fatalf("%d of 1000 scrambled neighbours still adjacent", adjacent)
	}
}

func TestDeterministicStreams(t *testing.T) {
	g1 := NewGenerator(A, Zipfian, 10000, 7)
	g2 := NewGenerator(A, Zipfian, 10000, 7)
	for i := 0; i < 1000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
	g3 := NewGenerator(A, Zipfian, 10000, 8)
	same := 0
	for i := 0; i < 1000; i++ {
		if g1.Next() == g3.Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical ops", same)
	}
}

func TestWorkloadAndDistributionNames(t *testing.T) {
	if A.String() != "YCSB_A" || E.String() != "YCSB_E" {
		t.Fatal("workload names wrong")
	}
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" {
		t.Fatal("distribution names wrong")
	}
}
