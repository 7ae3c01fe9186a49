// Package ycsb generates the paper's evaluation workloads (§6): YCSB-style
// operation mixes over a fixed keyspace with uniform or zipfian (0.99)
// key popularity, keys scrambled by hashing so popular keys do not cluster
// in the tree.
//
//	YCSB-A  write heavy   50% put / 50% get
//	YCSB-B  read heavy     5% put / 95% get
//	YCSB-C  read only          100% get
//	YCSB-E  scan heavy    95% scan / 5% insert, ScanLength-key scans
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Workload selects an operation mix.
type Workload int

const (
	// A is write-heavy: 50% puts, 50% gets.
	A Workload = iota
	// B is read-heavy: 5% puts, 95% gets.
	B
	// C is read-only.
	C
	// E is scan-heavy, the YCSB spec's shape: 95% range scans of
	// ScanLength keys, 5% inserts.
	E
)

// String names the workload like the paper's figures.
func (w Workload) String() string {
	switch w {
	case A:
		return "YCSB_A"
	case B:
		return "YCSB_B"
	case C:
		return "YCSB_C"
	case E:
		return "YCSB_E"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Distribution selects key popularity.
type Distribution int

const (
	// Uniform draws keys uniformly at random from the keyspace.
	Uniform Distribution = iota
	// Zipfian draws keys with skew parameter 0.99, like YCSB.
	Zipfian
)

// String names the distribution like the paper's figures.
func (d Distribution) String() string {
	if d == Zipfian {
		return "zipfian"
	}
	return "uniform"
}

// ScanLength is the number of keys every YCSB-E scan visits.
const ScanLength = 10

// ZipfTheta is YCSB's default skew.
const ZipfTheta = 0.99

// OpKind is the kind of one generated operation.
type OpKind int

const (
	// OpGet reads one key.
	OpGet OpKind = iota
	// OpPut writes one key.
	OpPut
	// OpScan reads ScanLength keys in order starting at Key.
	OpScan
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
	// ScanLen is the number of keys an OpScan visits (0 otherwise).
	ScanLen int
}

// Generator produces a deterministic operation stream. Not safe for
// concurrent use; give each worker its own (same workload, distinct seed).
type Generator struct {
	workload Workload
	dist     Distribution
	keyspace uint64
	rng      *rand.Rand
	zipf     *zipfGen
}

// NewGenerator creates a generator over keys [0, keyspace).
func NewGenerator(w Workload, d Distribution, keyspace uint64, seed int64) *Generator {
	g := &Generator{
		workload: w,
		dist:     d,
		keyspace: keyspace,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if d == Zipfian {
		g.zipf = newZipfGen(keyspace, ZipfTheta)
	}
	return g
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	var kind OpKind
	switch g.workload {
	case A:
		if g.rng.Intn(100) < 50 {
			kind = OpPut
		}
	case B:
		if g.rng.Intn(100) < 5 {
			kind = OpPut
		}
	case C:
		kind = OpGet
	case E:
		kind = OpScan
		if g.rng.Intn(100) < 5 {
			// The spec's 5% inserts: draw from a fresh band directly above
			// the preloaded keyspace, so the run genuinely grows the tree
			// (splits race the scans) instead of overwriting loaded keys.
			return Op{Kind: OpPut, Key: g.keyspace + g.rng.Uint64()%g.keyspace}
		}
	}
	op := Op{Kind: kind, Key: g.NextKey()}
	if kind == OpScan {
		op.ScanLen = ScanLength
	}
	return op
}

// NextKey draws a key according to the distribution. Zipfian ranks are
// scrambled so popular keys are spread across the key order (the paper
// hashes key values for the same reason); uniform draws are already
// spread and adding a hash-mod would only introduce collision skew.
func (g *Generator) NextKey() uint64 {
	if g.dist == Zipfian {
		return Scramble(g.zipf.next(g.rng)) % g.keyspace
	}
	return uint64(g.rng.Int63n(int64(g.keyspace)))
}

// Scramble is a 64-bit finalizer-style hash (splitmix64's mix), used to
// spread zipfian ranks across the keyspace.
func Scramble(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// zipfGen is the standard YCSB zipfian generator (Gray et al.'s rejection
// formulation) over ranks [0, n).
type zipfGen struct {
	n     uint64
	theta float64
	alpha float64
	zetaN float64
	eta   float64
	zeta2 float64
}

func newZipfGen(n uint64, theta float64) *zipfGen {
	z := &zipfGen{n: n, theta: theta}
	z.zetaN = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetaN)
	return z
}

// zetaCache memoizes the O(n) zeta sums so that spawning one generator per
// worker over a large keyspace pays the cost once.
var (
	zetaMu    sync.Mutex
	zetaCache = map[uint64]float64{}
)

func zeta(n uint64, theta float64) float64 {
	if theta != ZipfTheta {
		return zetaSum(n, theta)
	}
	zetaMu.Lock()
	defer zetaMu.Unlock()
	if v, ok := zetaCache[n]; ok {
		return v
	}
	v := zetaSum(n, theta)
	zetaCache[n] = v
	return v
}

func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfGen) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
